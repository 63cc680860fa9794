module Arena = Ff_pmem.Arena
module L = Layout

let peek = Arena.peek

let node_violations a l n acc =
  let cap = l.L.capacity in
  let leftmost = peek a (n + L.off_leftmost) in
  let err fmt = Printf.ksprintf (fun s -> Printf.sprintf "node %d: %s" n s) fmt in
  let acc = ref acc in
  (* Zero-terminated record array. *)
  let cnt = ref cap in
  (try
     for i = 0 to cap - 1 do
       if peek a (n + L.ptr_off i) = 0 then begin
         cnt := i;
         raise Exit
       end
     done
   with Exit -> ());
  for i = !cnt to cap - 1 do
    if peek a (n + L.ptr_off i) <> 0 then
      acc := err "nonzero ptr at slot %d beyond terminator %d" i !cnt :: !acc
  done;
  (* No garbage, strictly ascending keys. *)
  let prev_raw = ref leftmost in
  let prev_key = ref min_int in
  for i = 0 to !cnt - 1 do
    let p = peek a (n + L.ptr_off i) in
    let k = peek a (n + L.key_off i) in
    if p = !prev_raw then acc := err "duplicate-pointer garbage at slot %d" i :: !acc
    else begin
      if k <= !prev_key then
        acc := err "keys not strictly ascending at slot %d (%d <= %d)" i k !prev_key :: !acc;
      prev_key := k
    end;
    prev_raw := p
  done;
  let hint = peek a (n + L.off_count) in
  if hint <> !cnt then acc := err "count hint %d <> count %d" hint !cnt :: !acc;
  (* Leaf anchor; internal routes read no switch, so it must be even. *)
  if peek a (n + L.off_level) = 0 then begin
    if leftmost <> n then acc := err "leaf anchor is %d, expected self" leftmost :: !acc
  end
  else if peek a (n + L.off_switch) land 1 = 1 then
    acc := err "internal node with an odd switch" :: !acc;
  !acc

let leftmost_of_level t level =
  let a = Tree.arena t in
  let rec go n = if peek a (n + L.off_level) > level then go (peek a (n + L.off_leftmost)) else n in
  go (Tree.root t)

let chain t first =
  let a = Tree.arena t in
  let rec go n acc = if n = 0 then List.rev acc else go (peek a (n + L.off_sibling)) (n :: acc) in
  go first []

let check t =
  let a = Tree.arena t and l = Tree.layout t in
  let acc = ref [] in
  let rt = Tree.root t in
  let top = peek a (rt + L.off_level) in
  if peek a (rt + L.off_sibling) <> 0 then
    acc := Printf.sprintf "root %d has a sibling (uncommitted root growth)" rt :: !acc;
  for level = top downto 0 do
    let ch = chain t (leftmost_of_level t level) in
    (* Node-local invariants + level consistency. *)
    List.iter
      (fun n ->
        acc := node_violations a l n !acc;
        let lv = peek a (n + L.off_level) in
        if lv <> level then
          acc := Printf.sprintf "node %d: level %d on chain of level %d" n lv level :: !acc)
      ch;
    (* Chain keys strictly ascending across nodes. *)
    let prev = ref min_int in
    List.iter
      (fun n ->
        List.iter
          (fun (k, _) ->
            if k <= !prev then
              acc :=
                Printf.sprintf "level %d: chain keys not ascending at node %d (key %d)" level n k
                :: !acc;
            prev := k)
          (Node.entries_debug a l n))
      ch;
    (* Parent attachment and routing. *)
    if level < top then begin
      let parents = chain t (leftmost_of_level t (level + 1)) in
      let referenced = Hashtbl.create 64 in
      List.iter
        (fun p ->
          let lm = peek a (p + L.off_leftmost) in
          Hashtbl.replace referenced lm min_int;
          if peek a (lm + L.off_level) <> level then
            acc := Printf.sprintf "parent %d's leftmost child %d of wrong level" p lm :: !acc;
          List.iter
            (fun (k, c) ->
              Hashtbl.replace referenced c k;
              if peek a (c + L.off_level) <> level then
                acc :=
                  Printf.sprintf "parent %d routes to node %d of wrong level" p c :: !acc)
            (Node.entries_debug a l p))
        parents;
      List.iter
        (fun n ->
          match Hashtbl.find_opt referenced n with
          | None ->
              acc := Printf.sprintf "node %d (level %d) not attached to any parent" n level :: !acc
          | Some sep ->
              let low = peek a (n + L.off_low) in
              if sep <> min_int && sep <> low then
                acc :=
                  Printf.sprintf "node %d separator %d <> low key %d" n sep low :: !acc;
              (match Node.entries_debug a l n with
              | (k0, _) :: _ when k0 < low ->
                  acc := Printf.sprintf "node %d first key %d < low %d" n k0 low :: !acc
              | _ -> ()))
        ch
    end
  done;
  (* Value uniqueness across leaves. *)
  let seen = Hashtbl.create 1024 in
  List.iter
    (fun n ->
      List.iter
        (fun (k, v) ->
          match Hashtbl.find_opt seen v with
          | Some k' ->
              acc := Printf.sprintf "value %d duplicated (keys %d and %d)" v k' k :: !acc
          | None -> Hashtbl.replace seen v k)
        (Node.entries_debug a l n))
    (chain t (leftmost_of_level t 0));
  List.rev !acc

let check_exn t =
  match check t with
  | [] -> ()
  | vs -> failwith (String.concat "\n" vs)

let keys t =
  let a = Tree.arena t and l = Tree.layout t in
  List.concat_map
    (fun n -> List.map fst (Node.entries_debug a l n))
    (chain t (leftmost_of_level t 0))
