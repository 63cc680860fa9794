module Arena = Ff_pmem.Arena
module L = Layout

(* Sort [keys] (all positive), moving [vals] along: an LSD radix sort
   on 16-bit digits, with only as many passes as the largest key needs.
   Returns the sorted keys and values. *)
let radix_sort keys vals =
  let n = Array.length keys in
  let src = ref (keys, vals) and dst = ref (Array.make n 0, Array.make n 0) in
  let count = Array.make 65537 0 in
  let top = Array.fold_left max 0 keys and shift = ref 0 in
  while !shift < Sys.int_size && top lsr !shift > 0 do
    let (sk, sv), (dk, dv) = (!src, !dst) in
    let digit i = (sk.(i) lsr !shift) land 0xffff in
    let bump d = count.(d) <- count.(d) + 1 in
    Array.fill count 0 65537 0;
    for i = 0 to n - 1 do bump (digit i + 1) done;
    for d = 1 to 65536 do count.(d) <- count.(d) + count.(d - 1) done;
    for i = 0 to n - 1 do
      let d = digit i in
      dk.(count.(d)) <- sk.(i);
      dv.(count.(d)) <- sv.(i);
      bump d
    done;
    src := (dk, dv);
    dst := (sk, sv);
    shift := !shift + 16
  done;
  !src

(* Leaf and internal occupancy. *)
let fill = 0.85

let load ?(node_bytes = 512) ?(root_slot = 0) arena pairs =
  let l = L.make ~node_bytes in
  Array.iter
    (fun (k, v) ->
      if k <= 0 then invalid_arg "Bulk.load: keys must be positive";
      if v = 0 then invalid_arg "Bulk.load: values must be nonzero")
    pairs;
  let keys, vals = radix_sort (Array.map fst pairs) (Array.map snd pairs) in
  for i = 1 to Array.length keys - 1 do
    if keys.(i) = keys.(i - 1) then invalid_arg "Bulk.load: duplicate key"
  done;
  let per = min (max 2 (int_of_float (float_of_int l.L.capacity *. fill)))
              (l.L.capacity - 1) in
  (* Write a fresh private node — header, records [ks/vs.(first ..
     first+len-1)], count hint — and write back its record lines at
     once.  Nothing is reachable until the root-slot store, so no
     ordering is needed; the header line still takes the sibling link
     and is written back after it. *)
  let build_node ~level ~leftmost ~low ks vs first len =
    let n = Arena.alloc arena l.L.node_words in
    Node.init arena l n ~level ~leftmost ~low;
    for i = 0 to len - 1 do
      L.set_key arena n i ks.(first + i);
      L.set_ptr arena n i vs.(first + i)
    done;
    L.set_count_hint arena n len;
    Arena.flush_range arena (n + L.header_words) (l.L.node_words - L.header_words);
    n
  in
  (* One level, left to right, over sorted keys and values ([inner] =
     0) or over the level below's low keys and nodes ([inner] = 1: a
     node's first child is its leftmost pointer).  Returns the new
     nodes' low keys and addresses; the first node covers everything
     to the left. *)
  let level lv inner (ks, vs) =
    let per = per + inner in
    let cnt = (Array.length ks + per - 1) / per in
    let nodes =
      Array.init cnt (fun j ->
          let first = j * per in
          let len = min per (Array.length ks - first) - inner in
          let leftmost = if inner = 1 then vs.(first) else 0 in
          build_node ~level:lv ~leftmost ~low:ks.(first) ks vs (first + inner) len)
    in
    L.set_low arena nodes.(0) 0;
    (Array.init cnt (fun j -> ks.(j * per)), nodes)
  in
  (* Stack internal levels until one node remains; [levels] is root
     level first. *)
  let rec stack lv ((_, nodes) as below) levels =
    if Array.length nodes = 1 then (nodes.(0), nodes :: levels)
    else stack (lv + 1) (level lv 1 below) (nodes :: levels)
  in
  let root, levels =
    if Array.length keys = 0 then
      let n = build_node ~level:0 ~leftmost:0 ~low:0 keys vals 0 0 in
      (n, [ [| n |] ])
    else stack 1 (level 0 0 (keys, vals)) []
  in
  (* Re-read the tree depth-first, as a walk that gathers each level's
     nodes does: its charged loads are part of the loader's cost. *)
  let rec gather n = if L.level arena n > 0 then (gather (L.leftmost arena n); each n 0)
  and each n i =
    if i < l.L.capacity then begin
      let p = L.ptr arena n i in
      if p <> 0 then (gather p; each n (i + 1))
    end
  in
  gather root;
  (* Chain siblings and write back each header line, level by level,
     then publish.  Levels go in the [Hashtbl.iter] order of a table
     keyed by level and filled root level first: the link stores reach
     the cache model in that order. *)
  let by_level = Hashtbl.create 8 in
  List.iteri (fun i nodes -> Hashtbl.replace by_level (List.length levels - 1 - i) nodes) levels;
  Hashtbl.iter
    (fun _ nodes ->
      for j = 1 to Array.length nodes - 1 do
        L.set_sibling arena nodes.(j - 1) nodes.(j)
      done;
      Array.iter (Arena.flush arena) nodes)
    by_level;
  Arena.root_set arena root_slot root;
  Tree.open_existing ~node_bytes ~root_slot arena
