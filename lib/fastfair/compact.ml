module Arena = Ff_pmem.Arena
module L = Layout

let merge_threshold l = max 1 (l.L.capacity / 4)

let leftmost_of_level t level =
  let a = Tree.arena t in
  let rec go n = if L.level a n > level then go (L.leftmost a n) else n in
  go (Tree.root t)

(* Position of the entry routing to [child] within [parent], matching
   by pointer (robust against separator/low-key drift). *)
let entry_position_of_child a l parent child =
  let rec go i prev_raw =
    if i >= l.L.capacity then None
    else begin
      let p = L.ptr a parent i in
      if p = 0 then None
      else if p <> prev_raw && p = child then Some i
      else go (i + 1) p
    end
  in
  go 0 (L.leftmost a parent)

(* FAST-delete the separator that routes to [child]; all traffic then
   reaches it through the left sibling's chain.  Returns false if the
   child was dangling (no separator to remove). *)
let remove_parent_separator t child level =
  let a = Tree.arena t and l = Tree.layout t in
  let rec walk parent =
    if parent = 0 then false
    else
      match entry_position_of_child a l parent child with
      | Some pos ->
          Node.remove_at a l parent pos;
          true
      | None -> walk (L.sibling a parent)
  in
  if L.level a (Tree.root t) <= level then false
  else walk (leftmost_of_level t (level + 1))

(* Merge the donor [b] into its left sibling [a_node]; both at [level],
   [b = sibling a_node].  The caller has checked capacities and that
   [b]'s separator was removed (a donor that is its parent's leftmost
   child is never merged: the parent's leftmost pointer would dangle —
   standard B-trees merge only within one parent). *)
let merge_into t a_node b level =
  let a = Tree.arena t and l = Tree.layout t in
  (* An internal donor's leftmost child needs its own entry. *)
  if level > 0 then begin
    let lm = L.leftmost a b in
    Node.insert_nonfull a l a_node ~count:(Node.count a l a_node) ~key:(L.low a b)
      ~value:lm
  end;
  (* Migrate entries: commit in the left node first, then retire the
     donor's copy; the transient duplicate carries the same value.  A
     leaf donor's delete turns its switch odd, so a crashed image's
     readers scan it right to left; an internal donor's first entry is
     shifted out with the switch left even, as routes never read it: a
     half-done left shift only routes a key to the child left of its
     own, which the descent's move-right corrects. *)
  let rec drain () =
    match Node.first_entry a l b with
    | Some (k, v) ->
        Node.insert_nonfull a l a_node ~count:(Node.count a l a_node) ~key:k ~value:v;
        if level = 0 then ignore (Node.delete a l b k) else Node.remove_at a l b 0;
        drain ()
    | None -> ()
  in
  drain ();
  (* Unlink with one failure-atomic store, then reclaim. *)
  L.set_sibling a a_node (L.sibling a b);
  Arena.flush a (a_node + L.off_sibling);
  Arena.free a b l.L.node_words

let compact t =
  let a = Tree.arena t and l = Tree.layout t in
  Tree.drop_finger t;
  let freed = ref 0 in
  let top = L.level a (Tree.root t) in
  for level = 0 to top do
    let node = ref (leftmost_of_level t level) in
    while !node <> 0 do
      let b = L.sibling a !node in
      if b <> 0 then begin
        let ca = Node.count a l !node and cb = Node.count a l b in
        let budget = l.L.capacity - 1 - if level > 0 then 1 else 0 in
        if
          (ca <= merge_threshold l || cb <= merge_threshold l)
          && ca + cb <= budget
          && remove_parent_separator t b level
        then begin
          merge_into t !node b level;
          incr freed
          (* stay on this node: its new sibling may merge too *)
        end
        else node := b
      end
      else node := 0
    done
  done;
  (* Collapse empty internal roots: a failure-atomic root-slot store
     per level of shrinkage. *)
  let rec collapse () =
    let rt = Tree.root t in
    if L.level a rt > 0 && Node.count a l rt = 0 then begin
      let only_child = L.leftmost a rt in
      Arena.root_set a (Tree.root_slot t) only_child;
      Arena.free a rt l.L.node_words;
      incr freed;
      collapse ()
    end
  in
  collapse ();
  !freed
