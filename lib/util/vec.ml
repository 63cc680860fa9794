type 'a t = { mutable data : 'a array; mutable len : int; dummy : 'a }

let create ?(capacity = 16) ~dummy () =
  { data = Array.make (max capacity 1) dummy; len = 0; dummy }

let length t = t.len

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Vec.get";
  t.data.(i)

let set t i v =
  if i < 0 || i >= t.len then invalid_arg "Vec.set";
  t.data.(i) <- v

let grow t =
  let cap = Array.length t.data in
  let data = Array.make (2 * cap) t.dummy in
  Array.blit t.data 0 data 0 t.len;
  t.data <- data

let push t v =
  if t.len = Array.length t.data then grow t;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let pop t =
  if t.len = 0 then invalid_arg "Vec.pop";
  t.len <- t.len - 1;
  let v = t.data.(t.len) in
  t.data.(t.len) <- t.dummy;
  v

let clear t =
  Array.fill t.data 0 t.len t.dummy;
  t.len <- 0

let is_empty t = t.len = 0

let iter f t =
  for i = 0 to t.len - 1 do
    f t.data.(i)
  done

let iteri f t =
  for i = 0 to t.len - 1 do
    f i t.data.(i)
  done
