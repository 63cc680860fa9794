(* Media-fault repair and reachability hooks for the FAST+FAIR tree.

   This module backs the [scrubbable] capability of the fastfair
   descriptors: it registers a {!Ff_index.Registry.register_scrub}
   provider that can enumerate reachable blocks, re-derive poisoned
   lines from surviving structure, and validate the result against
   {!Invariant}.  Everything reads through uncharged peeks — the
   scrubber must be able to inspect a damaged device without tripping
   the very {!Ff_pmem.Arena.Media_error} it is diagnosing.  Writes go
   through ordinary charged stores, which clear the poison (the
   full-line-overwrite repair of real platforms) and are flushed like
   any recovery-time write.

   Repair policy (conservative, structure-first):
   - split-log lines are zeroed: the log is an idempotent redo record,
     and an invalid flag word is the safe state;
   - a poisoned leaf RECORD line is quarantined: surviving records from
     clean lines are compacted in place, the lost ones are counted;
   - a poisoned leaf HEADER is re-derived from the parent level (the
     separator is the leaf's low key, the in-order successor is its
     sibling) when the inner levels are sound;
   - any poisoned INNER node triggers a full rebuild of every inner
     level from the leaf chain — inner nodes are pure routing state, so
     they can always be re-derived while the chain is intact.  The old
     inner nodes are zeroed and become leaked blocks for the scrubber
     to reclaim.  A poisoned inner HEADER hides the chain heads below
     it (a root's, the whole tree): the walk still follows its clean
     record lines and looks up the lost leftmost child by its sibling
     pointer. *)

module Arena = Ff_pmem.Arena
module D = Ff_index.Descriptor
module L = Layout

let wpl = Arena.words_per_line

type ctx = { a : Arena.t; t : Tree.t; l : L.t; root_slot : int }

let pk c addr = Arena.peek c.a addr
let line_clean c line = not (Arena.is_poisoned c.a (line * wpl))
let header_clean c n = not (Arena.is_poisoned c.a n)
let root c = pk c c.root_slot
let log_area c = pk c (c.root_slot + 1)
let log_words c = c.l.L.node_words + wpl

let in_node c n addr = addr >= n && addr < n + c.l.L.node_words

let plausible_node c n =
  n >= Arena.reserved_words
  && n mod wpl = 0
  && n + c.l.L.node_words <= Arena.capacity c.a

(* The unvisited node of [level] whose sibling pointer names [n]: the
   left neighbour of a chain node that nothing else points at.  Found
   by scanning the heap's line-aligned blocks; [None] unless exactly
   one qualifies, so a stale block cannot be adopted by mistake. *)
let left_neighbour c seen ~level n =
  let hi = Arena.reserved_words + Arena.used_words c.a - c.l.L.node_words in
  let found = ref [] in
  let x = ref Arena.reserved_words in
  while !x <= hi do
    let m = !x in
    if (not (Hashtbl.mem seen m))
       && header_clean c m
       && pk c (m + L.off_level) = level
       && pk c (m + L.off_sibling) = n
       && (level > 0 || pk c (m + L.off_leftmost) = m)
    then found := m :: !found;
    x := m + wpl
  done;
  match !found with [ m ] -> Some m | _ -> None

(* Poison-aware reachability walk.  Pointers are only followed out of
   clean lines, and only into plausible node addresses whose level
   matches the position in the tree — scrambled lines cannot steer the
   walk into garbage.  Returns the visit table (node -> level, with
   [-1] when the level is unknown because the header is poisoned) and
   the header-poisoned nodes whose leftmost child was not found. *)
let walk c =
  let seen : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let orphaned = ref [] in
  let rec visit n expected =
    if plausible_node c n && not (Hashtbl.mem seen n) then begin
      if header_clean c n then begin
        let level = pk c (n + L.off_level) in
        if expected < 0 || level = expected then begin
          Hashtbl.replace seen n level;
          visit (pk c (n + L.off_sibling)) level;
          if level > 0 then begin
            visit (pk c (n + L.off_leftmost)) (level - 1);
            for i = 0 to c.l.L.capacity - 1 do
              let po = n + L.ptr_off i in
              if line_clean c (po / wpl) then begin
                let p = pk c po in
                if p <> 0 then visit p (level - 1)
              end
            done
          end
        end
      end
      else begin
        (* Damaged header: the block is reachable (something pointed at
           it) but its level and leftmost pointer are lost. *)
        Hashtbl.replace seen n (max expected (-1));
        if expected <> 0 then adopt_children n expected
      end
    end
  (* An inner node's clean record lines still name its children: a
     record is trusted when its pointer leads to a clean node whose low
     key is the record's separator.  The lost leftmost child is the
     head of the chain leading into the first of them. *)
  and adopt_children n expected =
    let kids = ref [] in
    for i = c.l.L.capacity - 1 downto 0 do
      let ko = n + L.key_off i in
      if line_clean c (ko / wpl) then begin
        let p = pk c (ko + 1) in
        if p <> 0 && plausible_node c p && header_clean c p
           && pk c (p + L.off_low) = pk c ko
        then kids := (pk c ko, p) :: !kids
      end
    done;
    match List.sort compare !kids with
    | [] -> ()
    | (_, first) :: _ as kids ->
        let level = pk c (first + L.off_level) in
        if expected < 0 || level = expected - 1 then begin
          List.iter
            (fun (_, p) -> if pk c (p + L.off_level) = level then visit p level)
            kids;
          let rec head m found =
            match left_neighbour c seen ~level m with
            | Some l when not (List.mem l found) -> head l (l :: found)
            | _ -> found
          in
          match head first [] with
          | [] -> orphaned := (n, level) :: !orphaned
          | found -> List.iter (fun l -> visit l level) found
        end
  in
  visit (root c) (-1);
  (seen, !orphaned)

let reachable_blocks c =
  let seen, _ = walk c in
  let nodes =
    List.sort compare (Hashtbl.fold (fun n _ acc -> n :: acc) seen [])
  in
  let blocks = List.map (fun n -> (n, c.l.L.node_words)) nodes in
  let la = log_area c in
  if la <> 0 then (la, log_words c) :: blocks else blocks

(* ------------------------------------------------------------------ *)
(* Leaf-order enumeration via the inner levels                         *)
(* ------------------------------------------------------------------ *)

(* In-order (separator, leaf) sequence derived from the level-1 chain:
   the leftmost child's separator is the parent's low key, child [i]'s
   is key [i].  Poison-aware: entries are only read out of clean
   lines, and the chain is only followed through clean headers — a
   damaged parent contributes nothing (its leaves fall back to
   self-derived separators), it cannot contribute garbage. *)
let leaf_sequence c =
  let r = root c in
  if not (header_clean c r) then []
  else begin
    let top = pk c (r + L.off_level) in
    if top = 0 then [ (pk c (r + L.off_low), r) ]
    else begin
      let rec leftmost_at n lvl target =
        if n = 0 || not (header_clean c n) then 0
        else if lvl = target then n
        else leftmost_at (pk c (n + L.off_leftmost)) (lvl - 1) target
      in
      let acc = ref [] in
      let n = ref (leftmost_at r top 1) in
      while !n <> 0 do
        let p = !n in
        acc := (pk c (p + L.off_low), pk c (p + L.off_leftmost)) :: !acc;
        for i = 0 to c.l.L.capacity - 1 do
          let ko = p + L.key_off i in
          if line_clean c (ko / wpl) then begin
            let ptr = pk c (p + L.ptr_off i) in
            if ptr <> 0 then acc := (pk c ko, ptr) :: !acc
          end
        done;
        let s = pk c (p + L.off_sibling) in
        n :=
          if s <> 0 && plausible_node c s && header_clean c s
             && pk c (s + L.off_level) = 1
          then s
          else 0
      done;
      List.rev !acc
    end
  end

(* ------------------------------------------------------------------ *)
(* Line repairs                                                        *)
(* ------------------------------------------------------------------ *)

let zero_line c line =
  let base = line * wpl in
  for w = base to base + wpl - 1 do
    Arena.write c.a w 0
  done;
  Arena.flush c.a base

(* Compact a leaf whose record area has poisoned lines: keep the
   records whose lines are clean, rewrite them densely, zero the rest.
   Offline (the scrubber owns the tree), so plain stores suffice. *)
let compact_leaf c n bad_lines =
  let survivors = ref [] in
  for i = c.l.L.capacity - 1 downto 0 do
    let ko = n + L.key_off i in
    if line_clean c (ko / wpl) then begin
      let k = pk c ko and p = pk c (ko + 1) in
      if p <> 0 then survivors := (k, p) :: !survivors
    end
  done;
  let survivors =
    List.sort_uniq (fun (k1, _) (k2, _) -> compare k1 k2) !survivors
  in
  let old_hint = if header_clean c n then pk c (n + L.off_count) else 0 in
  List.iteri
    (fun i (k, p) ->
      Arena.write c.a (n + L.key_off i) k;
      Arena.write c.a (n + L.ptr_off i) p)
    survivors;
  let nsurv = List.length survivors in
  for i = nsurv to c.l.L.capacity - 1 do
    Arena.write c.a (n + L.key_off i) 0;
    Arena.write c.a (n + L.ptr_off i) 0
  done;
  if header_clean c n then Arena.write c.a (n + L.off_count) nsurv;
  Arena.flush_range c.a n c.l.L.node_words;
  (* The rewrite already cleared the poison; report which lines were
     dropped and a best-effort loss count. *)
  (List.length bad_lines, max 0 (old_hint - nsurv))

(* Re-derive a poisoned leaf header.  Preferred source: the parent
   level (low = routing separator, sibling = in-order successor).
   Fallback when the parent info did not survive: the leaf's own
   smallest surviving record key — every record is >= the true low
   key, so using it as the separator preserves chain order; the
   sibling is left 0 and the caller must rebuild (and relink) the
   whole routing structure.  [R_failed] means nothing survived at all:
   the leaf cannot be re-derived and must be dropped. *)
type rederive = R_parent | R_selflow | R_failed

let rederive_leaf_header c n seq =
  let write_header ~sep ~succ =
    Arena.write c.a (n + L.off_level) 0;
    Arena.write c.a (n + L.off_sibling) succ;
    Arena.write c.a (n + L.off_switch) 0;
    Arena.write c.a (n + L.off_leftmost) n;
    Arena.write c.a (n + L.off_low) sep;
    Arena.write c.a (n + (L.off_low + 1)) 0;
    Arena.write c.a (n + (L.off_low + 2)) 0;
    let cnt = ref 0 in
    (try
       for i = 0 to c.l.L.capacity - 1 do
         if pk c (n + L.ptr_off i) = 0 then raise Exit;
         incr cnt
       done
     with Exit -> ());
    Arena.write c.a (n + L.off_count) !cnt;
    Arena.flush_range c.a n wpl
  in
  let rec find = function
    | (sep, leaf) :: rest when leaf = n ->
        let succ = match rest with (_, s) :: _ -> s | [] -> 0 in
        Some (sep, succ)
    | _ :: rest -> find rest
    | [] -> None
  in
  match find seq with
  | Some (sep, succ) ->
      write_header ~sep ~succ;
      R_parent
  | None ->
      let mink = ref max_int in
      for i = 0 to c.l.L.capacity - 1 do
        let ko = n + L.key_off i in
        if line_clean c (ko / wpl) && pk c (n + L.ptr_off i) <> 0 then
          mink := min !mink (pk c ko)
      done;
      if !mink = max_int then R_failed
      else begin
        write_header ~sep:!mink ~succ:0;
        R_selflow
      end

(* Rebuild every inner level from the leaf chain.  Inner nodes are
   routing state only, so as long as the chain of repaired leaves is
   walkable the whole upper tree can be re-derived.  Old inner nodes
   are zeroed (clearing any poison) and left for leak reclamation. *)
let rebuild_inners c old_inners leaves =
  List.iter
    (fun n ->
      for line = n / wpl to (n + c.l.L.node_words) / wpl - 1 do
        if not (line_clean c line) then zero_line c line
      done;
      Arena.write c.a (n + L.off_sibling) 0;
      Arena.write c.a (n + L.off_leftmost) 0;
      for i = 0 to c.l.L.capacity - 1 do
        Arena.write c.a (n + L.ptr_off i) 0
      done;
      Arena.flush_range c.a n c.l.L.node_words)
    old_inners;
  let fanout = max 2 c.l.L.capacity in
  let rec build level children =
    match children with
    | [] -> ()
    | [ (_, only) ] -> Arena.root_set c.a c.root_slot only
    | _ ->
        let rec pack acc = function
          | [] -> List.rev acc
          | (low0, first) :: rest ->
              let rec take n acc rest =
                match rest with
                | e :: tl when n > 0 -> take (n - 1) (e :: acc) tl
                | _ -> (List.rev acc, rest)
              in
              let entries, rest = take (fanout - 1) [] rest in
              let node = Arena.alloc c.a c.l.L.node_words in
              Node.init c.a c.l node ~level ~leftmost:first ~low:low0;
              List.iteri
                (fun i (k, child) ->
                  Arena.write c.a (node + L.key_off i) k;
                  Arena.write c.a (node + L.ptr_off i) child)
                entries;
              Arena.write c.a (node + L.off_count) (List.length entries);
              pack ((low0, node) :: acc) rest
        in
        let parents = pack [] children in
        let rec link = function
          | (_, x) :: ((_, y) :: _ as rest) ->
              Arena.write c.a (x + L.off_sibling) y;
              link rest
          | _ -> ()
        in
        link parents;
        List.iter
          (fun (_, n) -> Arena.flush_range c.a n c.l.L.node_words)
          parents;
        build (level + 1) parents
  in
  build 1 leaves

(* ------------------------------------------------------------------ *)
(* The repair entry point                                              *)
(* ------------------------------------------------------------------ *)

let repair c lines =
  let repaired = ref [] and quarantined = ref [] and lost = ref 0 in
  let seen, orphaned = walk c in
  (* A header-poisoned inner node whose leftmost child was not found
     lost that subtree: its header line is quarantined, and a lost leaf
     counts as full. *)
  List.iter
    (fun (n, level) ->
      quarantined := (n / wpl) :: !quarantined;
      if level = 0 then lost := !lost + c.l.L.capacity)
    orphaned;
  let owner addr =
    Hashtbl.fold
      (fun n lvl acc -> if in_node c n addr then Some (n, lvl) else acc)
      seen None
  in
  let la = log_area c in
  let in_log addr = la <> 0 && addr >= la && addr < la + log_words c in
  (* Partition the poisoned lines by what owns them. *)
  let log_lines = ref [] and node_lines = ref [] in
  List.iter
    (fun line ->
      let addr = line * wpl in
      if in_log addr then log_lines := line :: !log_lines
      else
        match owner addr with
        | Some (n, lvl) -> node_lines := (n, lvl, line) :: !node_lines
        | None -> () (* unreachable: leak reclamation will clear it *))
    lines;
  (* 1. Split-log damage: zero it; an invalid log is the safe state. *)
  List.iter
    (fun line ->
      zero_line c line;
      repaired := line :: !repaired)
    (List.rev !log_lines);
  let damaged_inners =
    List.sort_uniq compare
      (List.filter_map
         (fun (n, lvl, _) -> if lvl <> 0 then Some n else None)
         !node_lines)
  in
  let inner_damage = damaged_inners <> [] in
  (* 2. Leaf record lines: compact the survivors in place. *)
  let leaf_groups = Hashtbl.create 8 in
  List.iter
    (fun (n, lvl, line) ->
      if lvl = 0 && line <> n / wpl then begin
        let prev = try Hashtbl.find leaf_groups n with Not_found -> [] in
        Hashtbl.replace leaf_groups n (line :: prev)
      end)
    !node_lines;
  Hashtbl.iter
    (fun n bad ->
      let dropped, l = compact_leaf c n bad in
      ignore dropped;
      lost := !lost + l;
      quarantined := bad @ !quarantined)
    leaf_groups;
  (* 3. Leaf headers: re-derive from surviving parent info while it is
     still present (the rebuild below discards the old routing), else
     from the leaf's own surviving records — which breaks the chain at
     that leaf and forces a rebuild. *)
  let header_leaves =
    List.sort_uniq compare
      (List.filter_map
         (fun (n, lvl, line) ->
           if lvl = 0 && line = n / wpl then Some n else None)
         !node_lines)
  in
  let rebuild_needed = ref inner_damage in
  (if header_leaves <> [] then begin
     let seq = leaf_sequence c in
     List.iter
       (fun n ->
         match rederive_leaf_header c n seq with
         | R_parent -> repaired := (n / wpl) :: !repaired
         | R_selflow ->
             repaired := (n / wpl) :: !repaired;
             rebuild_needed := true
         | R_failed ->
             (* Nothing survived: zero the whole node so the rebuild
                drops it from the chain; the block becomes a leak. *)
             for line = n / wpl to (n + c.l.L.node_words - 1) / wpl do
               zero_line c line
             done;
             quarantined := (n / wpl) :: !quarantined;
             rebuild_needed := true)
       header_leaves
   end);
  (* 4. Rebuild every routing level from the repaired leaf set.  A
     fresh walk (all headers are clean now) finds every live leaf —
     including ones only reachable through a surviving parent pointer
     when the sibling chain was severed.  The whole chain is relinked
     in key order, then the inner levels are rebuilt from it; old
     inner nodes (damaged or merely abandoned) become leaks. *)
  (if !rebuild_needed then begin
     let seen2, _ = walk c in
     let leaves =
       Hashtbl.fold
         (fun n lvl acc ->
           if lvl = 0 && header_clean c n && pk c (n + L.off_leftmost) = n
           then n :: acc
           else acc)
         seen2 []
     in
     let keyed =
       List.sort compare (List.map (fun n -> (pk c (n + L.off_low), n)) leaves)
     in
     match keyed with
     | [] -> () (* nothing to hang the tree from; validate will report *)
     | _ ->
         let rec relink = function
           | (_, x) :: ((_, y) :: _ as rest) ->
               Arena.write c.a (x + L.off_sibling) y;
               Arena.flush c.a (x + L.off_sibling);
               relink rest
           | [ (_, last) ] ->
               Arena.write c.a (last + L.off_sibling) 0;
               Arena.flush c.a (last + L.off_sibling)
           | [] -> ()
         in
         relink keyed;
         let old_inners =
           Hashtbl.fold
             (fun n lvl acc -> if lvl <> 0 then n :: acc else acc)
             seen2 []
         in
         rebuild_inners c old_inners keyed;
         List.iter
           (fun (_, lvl, line) -> if lvl <> 0 then repaired := line :: !repaired)
           !node_lines
   end);
  {
    D.repaired_lines = List.sort_uniq compare !repaired;
    quarantined_lines = List.sort_uniq compare !quarantined;
    lost_records = !lost;
  }

(* ------------------------------------------------------------------ *)
(* Provider registration                                               *)
(* ------------------------------------------------------------------ *)

let validate c =
  try Invariant.check c.t with e -> [ Printexc.to_string e ]

let provider ?split_policy () (cfg : D.config) a =
  let t =
    Tree.open_existing ?node_bytes:cfg.D.node_bytes ?split_policy
      ~root_slot:cfg.D.root_slot a
  in
  let c = { a; t; l = Tree.layout t; root_slot = cfg.D.root_slot } in
  {
    D.scrub_grain = c.l.L.node_words;
    scrub_reachable = (fun () -> reachable_blocks c);
    scrub_repair = (fun lines -> repair c lines);
    scrub_validate = (fun () -> validate c);
  }

let () =
  let r = Ff_index.Registry.register_scrub in
  r "fastfair" (provider ());
  r "fastfair-logged" (provider ~split_policy:Tree.Logged ());
  r "fastfair-leaflock" (provider ())
