module L = Layout

type t = { tree : Tree.t; mutable node : int; mutable last : int }

let create tree ~lo = { tree; node = Tree.to_leaf tree lo; last = lo - 1 }

let seek c key =
  c.node <- Tree.to_leaf c.tree key;
  c.last <- key - 1

let rec next c =
  let a = Tree.arena c.tree in
  if c.node = 0 then None
  else
    match Node.next_above a (Tree.layout c.tree) c.node ~tr:(Tree.tracer c.tree) c.last with
    | Some (k, v) ->
        c.last <- k;
        Some (k, v)
    | None ->
        c.node <- L.sibling a c.node;
        next c

let fold tree ~lo ~hi ~init f =
  let c = create tree ~lo in
  let rec go acc =
    match next c with
    | Some (k, v) when k <= hi -> go (f acc k v)
    | Some _ | None -> acc
  in
  go init
