(* The invariant checker must actually catch each class of corruption
   — otherwise the crash tests prove nothing.  Each test plants one
   specific defect with raw stores and asserts the checker reports it. *)

open Ff_pmem
open Ff_fastfair

let value_of k = (2 * k) + 1

let mk ?(n = 200) () =
  let a = Arena.create ~words:(1 lsl 20) () in
  let t = Tree.create ~node_bytes:128 a in
  for k = 1 to n do
    Tree.insert t ~key:k ~value:(value_of k)
  done;
  (a, t)

let some_leaf t =
  (* a non-root leaf *)
  let a = Tree.arena t in
  List.find
    (fun n -> Arena.peek a (n + Layout.off_level) = 0 && n <> Tree.root t)
    (Tree.reachable_nodes t)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let expect_violation t pattern =
  match Invariant.check t with
  | [] -> Alcotest.failf "checker missed corruption (wanted %S)" pattern
  | vs ->
      Alcotest.(check bool)
        (Printf.sprintf "reports %S (got: %s)" pattern (String.concat " | " vs))
        true
        (List.exists (fun v -> contains_substring v pattern) vs)

let test_clean_tree_passes () =
  let _, t = mk () in
  Alcotest.(check (list string)) "no violations" [] (Invariant.check t)

let test_detects_unsorted_keys () =
  let a, t = mk () in
  let leaf = some_leaf t in
  Arena.write a (leaf + Layout.key_off 1) 0;
  expect_violation t "ascending"

let test_detects_duplicate_pointer_garbage () =
  let a, t = mk () in
  let leaf = some_leaf t in
  (* make records[1].ptr equal records[0].ptr *)
  Arena.write a (leaf + Layout.ptr_off 1) (Arena.peek a (leaf + Layout.ptr_off 0));
  expect_violation t "garbage"

let test_detects_broken_terminator () =
  let a, t = mk () in
  let leaf = some_leaf t in
  let l = Tree.layout t in
  (* Delete the leaf's last keys until its last two slots are empty,
     however full its split left it, then put a nonzero pointer in the
     last slot, beyond the record terminator. *)
  let rec trim () =
    let es = Node.entries_debug a l leaf in
    if List.length es > l.Layout.capacity - 2 then begin
      ignore (Tree.delete t (fst (List.nth es (List.length es - 1))));
      trim ()
    end
  in
  trim ();
  Arena.write a (leaf + Layout.ptr_off (l.Layout.capacity - 1)) 77777;
  expect_violation t "terminator"

let test_detects_bad_count_hint () =
  let a, t = mk () in
  let leaf = some_leaf t in
  Arena.write a (leaf + Layout.off_count) 1234;
  expect_violation t "count hint"

let test_detects_bad_anchor () =
  let a, t = mk () in
  let leaf = some_leaf t in
  Arena.write a (leaf + Layout.off_leftmost) 8;
  expect_violation t "anchor"

let test_detects_root_sibling () =
  let a, t = mk () in
  let leaf = some_leaf t in
  Arena.write a (Tree.root t + Layout.off_sibling) leaf;
  expect_violation t "root"

let test_detects_duplicate_values () =
  let a, t = mk () in
  let leaf = some_leaf t in
  (* clone another leaf's value into this one *)
  Arena.write a (leaf + Layout.ptr_off 0) (value_of 1);
  ignore (Invariant.check t);
  (* the planted value collides with key 1's value somewhere *)
  expect_violation t "duplicated"

let test_detects_low_key_violation () =
  let a, t = mk () in
  let leaf = some_leaf t in
  (* first key below the node's published lower bound *)
  let low = Arena.peek a (leaf + Layout.off_low) in
  if low > 0 then begin
    Arena.write a (leaf + Layout.off_low) (low + 1);
    expect_violation t "low"
  end

(* Internal routes read no switch, so an odd one is corruption. *)
let test_detects_odd_internal_switch () =
  let a, t = mk () in
  Arena.write a (Tree.root t + Layout.off_switch) 1;
  expect_violation t "odd switch"

(* A level-2 node off its chain's head (so level discovery still
   works) whose leftmost pointer names a leaf: the descent would take
   the leaf for a level-1 node. *)
let test_detects_wrong_level_leftmost () =
  let a, t = mk () in
  let level n = Arena.peek a (n + Layout.off_level) in
  let rec head n = if level n > 2 then head (Arena.peek a (n + Layout.off_leftmost)) else n in
  let h = head (Tree.root t) in
  match List.find_opt (fun n -> level n = 2 && n <> h) (Tree.reachable_nodes t) with
  | None -> Alcotest.fail "expected a second level-2 node"
  | Some n ->
      Arena.write a (n + Layout.off_leftmost) (some_leaf t);
      expect_violation t "leftmost child"

let test_keys_listing () =
  let _, t = mk ~n:50 () in
  Alcotest.(check (list int)) "keys in order" (List.init 50 (fun i -> i + 1))
    (Invariant.keys t)

let suite =
  [
    Alcotest.test_case "clean tree passes" `Quick test_clean_tree_passes;
    Alcotest.test_case "detects unsorted keys" `Quick test_detects_unsorted_keys;
    Alcotest.test_case "detects dup-pointer garbage" `Quick test_detects_duplicate_pointer_garbage;
    Alcotest.test_case "detects broken terminator" `Quick test_detects_broken_terminator;
    Alcotest.test_case "detects bad count hint" `Quick test_detects_bad_count_hint;
    Alcotest.test_case "detects bad anchor" `Quick test_detects_bad_anchor;
    Alcotest.test_case "detects root sibling" `Quick test_detects_root_sibling;
    Alcotest.test_case "detects duplicate values" `Quick test_detects_duplicate_values;
    Alcotest.test_case "detects low-key violation" `Quick test_detects_low_key_violation;
    Alcotest.test_case "detects odd internal switch" `Quick test_detects_odd_internal_switch;
    Alcotest.test_case "detects wrong-level leftmost" `Quick test_detects_wrong_level_leftmost;
    Alcotest.test_case "keys listing" `Quick test_keys_listing;
  ]
