module L = Layout

type t = { tree : Tree.t; mutable node : int; mutable last : int }

let create tree ~lo = { tree; node = Tree.to_leaf tree lo; last = lo - 1 }

let seek c key =
  c.node <- Tree.to_leaf c.tree key;
  c.last <- key - 1

(* Smallest valid key > c.last in the current node. *)
let scan_node c =
  let a = Tree.arena c.tree and l = Tree.layout c.tree in
  let cap = l.L.capacity in
  let best = ref None in
  let rec go i prev_raw =
    if i < cap then begin
      let p = L.ptr a c.node i in
      if p <> 0 then begin
        (if p <> prev_raw then begin
           let k = L.key a c.node i in
           match !best with
           | Some (bk, _) when bk <= k -> ()
           | Some _ | None -> if k > c.last then best := Some (k, p)
         end);
        go (i + 1) p
      end
    end
  in
  go 0 (L.leftmost a c.node);
  !best

let rec next c =
  if c.node = 0 then None
  else
    match scan_node c with
    | Some (k, v) ->
        c.last <- k;
        Some (k, v)
    | None ->
        c.node <- L.sibling (Tree.arena c.tree) c.node;
        next c

let fold tree ~lo ~hi ~init f =
  let c = create tree ~lo in
  let rec go acc =
    match next c with
    | Some (k, v) when k <= hi -> go (f acc k v)
    | Some _ | None -> acc
  in
  go init
