(* Cell [i] is [cells.(2i)] = key ([empty] if none) and [cells.(2i+1)]
   = value.  Linear probing from the key's Fibonacci hash, at most half
   full, backward-shift deletion (no tombstones).  The probe is a
   top-level function: a local recursive function that captures
   variables allocates a closure per call. *)

type t = {
  base_bits : int;
  mutable cells : int array;
  mutable mask : int; (* cells - 1 *)
  mutable shift : int; (* 63 - log2 cells *)
  mutable length : int;
  mutable last : int; (* the cell [get] found last: a hint, checked against the key *)
}

let empty = -1
let absent = -1

(* A table grown past this many cells goes back to its base size when
   cleared. *)
let shrink_above = 1024

let set_cells t bits =
  t.cells <- Array.make (2 lsl bits) empty;
  t.mask <- (1 lsl bits) - 1;
  t.shift <- 63 - bits;
  t.length <- 0;
  t.last <- 0

let create ~bits =
  let t = { base_bits = bits; cells = [||]; mask = 0; shift = 0; length = 0; last = 0 } in
  set_cells t bits;
  t

let length t = t.length
let cells t = t.mask + 1
let key t i = t.cells.(2 * i)
let value t i = t.cells.((2 * i) + 1)
let set_value t i v = t.cells.((2 * i) + 1) <- v

(* Fibonacci hashing: the top bits of the product. *)
let hash t k = (k * 0x2545F4914F6CDD1D) lsr t.shift

let rec probe cells mask k i =
  let c = cells.(2 * i) in
  if c = k || c = empty then i else probe cells mask k ((i + 1) land mask)

let find t k = probe t.cells t.mask k (hash t k)

(* Stores come in runs to one line (a node's words, a shift), so [get]
   first tries the cell it found last. *)
let get t k =
  let cells = t.cells and c = t.last in
  if cells.(2 * c) = k then cells.((2 * c) + 1)
  else begin
    let i = find t k in
    if cells.(2 * i) = k then begin
      t.last <- i;
      cells.((2 * i) + 1)
    end
    else absent
  end

let grow t =
  let old = t.cells in
  set_cells t (64 - t.shift);
  for c = 0 to (Array.length old / 2) - 1 do
    let k = old.(2 * c) in
    if k <> empty then begin
      let i = find t k in
      t.cells.(2 * i) <- k;
      t.cells.((2 * i) + 1) <- old.((2 * c) + 1);
      t.length <- t.length + 1
    end
  done

let add t k v =
  let i = find t k in
  t.cells.(2 * i) <- k;
  t.cells.((2 * i) + 1) <- v;
  t.length <- t.length + 1;
  if 2 * t.length > t.mask + 1 then grow t

let remove_at t i =
  let cells = t.cells and mask = t.mask in
  let hole = ref i and j = ref ((i + 1) land mask) in
  while cells.(2 * !j) <> empty do
    let h = hash t cells.(2 * !j) in
    (* The key at [j] may fill the hole unless its home lies cyclically
       in (hole, j]. *)
    let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not stays then begin
      cells.(2 * !hole) <- cells.(2 * !j);
      cells.((2 * !hole) + 1) <- cells.((2 * !j) + 1);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  cells.(2 * !hole) <- empty;
  t.length <- t.length - 1

let remove t k =
  let i = find t k in
  if t.cells.(2 * i) <> k then absent
  else begin
    let v = t.cells.((2 * i) + 1) in
    remove_at t i;
    v
  end

let clear t =
  if t.mask >= shrink_above then set_cells t t.base_bits
  else if t.length > 0 then begin
    Array.fill t.cells 0 (Array.length t.cells) empty;
    t.length <- 0
  end
