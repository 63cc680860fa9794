(* Registry-generic coverage: every registered descriptor gets a
   model-cross-checked fuzz, a one-thread model-checked crash sweep, and
   a persist -> power-fail -> reopen round trip that goes through the
   root-slot manifest (no out-of-band knowledge of what the image
   holds). *)

open Ff_pmem
module Prng = Ff_util.Prng
module Intf = Ff_index.Intf
module D = Ff_index.Descriptor
module Registry = Ff_index.Registry
module C = Ff_check.Check

let value_of k = (2 * k) + 1
let mk_arena ?(words = 1 lsl 21) () = Arena.create ~words ()

let small_config d =
  {
    D.default_config with
    D.node_bytes = (if d.D.caps.D.tunable_node_bytes then Some 256 else None);
  }

let expected_names =
  [
    "blink"; "fastfair"; "fastfair-kv"; "fastfair-leaflock"; "fastfair-logged";
    "fptree"; "sharded-fastfair"; "skiplist"; "snap-fastfair"; "wbtree"; "wort";
  ]

let test_names () =
  Alcotest.(check (list string)) "registered" expected_names (Registry.names ())

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_unknown_name () =
  Alcotest.(check bool) "find" true (Registry.find "no-such-index" = None);
  match Registry.find_exn "no-such-index" with
  | _ -> Alcotest.fail "find_exn should raise"
  | exception Invalid_argument msg ->
      List.iter
        (fun n ->
          Alcotest.(check bool) (n ^ " listed in error") true (contains msg n))
        expected_names

(* Model-cross-checked fuzz through the full extended ops contract
   (insert / search / delete / update / bulk_insert / close), built by
   registry name so the manifest path is exercised too. *)
let test_fuzz d () =
  let a = mk_arena () in
  let config = small_config d in
  let t = Registry.build ~config d.D.name a in
  Alcotest.(check string) "ops name stamped" d.D.name t.Intf.name;
  (match Registry.manifest a with
  | Some (d', cfg) ->
      Alcotest.(check string) "manifest name" d.D.name d'.D.name;
      Alcotest.(check bool) "manifest node size" true (cfg.D.node_bytes = config.D.node_bytes)
  | None -> Alcotest.fail "manifest missing after Registry.build");
  let model = Hashtbl.create 512 in
  let seed_keys = Array.init 64 (fun i -> (i + 1) * 101) in
  t.Intf.bulk_insert (Array.map (fun k -> (k, value_of k)) seed_keys);
  Array.iter (fun k -> Hashtbl.replace model k (value_of k)) seed_keys;
  let rng = Prng.create (D.name_hash d.D.name land 0xffff) in
  for _ = 1 to 2500 do
    let k = 1 + Prng.int rng 4000 in
    match Prng.int rng 12 with
    | (0 | 1) when d.D.caps.D.has_delete ->
        let expected = Hashtbl.mem model k in
        Alcotest.(check bool) "delete" expected (t.Intf.delete k);
        Hashtbl.remove model k
    | 2 | 3 ->
        Alcotest.(check (option int)) "search" (Hashtbl.find_opt model k) (t.Intf.search k)
    | 4 ->
        let expected = Hashtbl.mem model k in
        Alcotest.(check bool) "update" expected (t.Intf.update k (k + 7));
        if expected then Hashtbl.replace model k (k + 7)
    | _ ->
        t.Intf.insert k (value_of k);
        Hashtbl.replace model k (value_of k)
  done;
  Hashtbl.iter
    (fun k v -> Alcotest.(check (option int)) "model" (Some v) (t.Intf.search k))
    model;
  if d.D.caps.D.has_range then begin
    let scanned = ref 0 in
    t.Intf.range 1 10_000 (fun k v ->
        incr scanned;
        Alcotest.(check (option int)) "range pair" (Some v) (Hashtbl.find_opt model k));
    Alcotest.(check int) "range complete" (Hashtbl.length model) !scanned
  end;
  t.Intf.close ()

(* The one crash sweep over every descriptor, a one-thread model
   check: one writer's 12 ops (inserts, overwrites and deletes drawn
   from twice the prefilled keys) over 120 prefilled keys on small
   nodes, crashed at 40 sampled store counts under the three TSO
   modes.  Every image must be durably linearizable after recovery and,
   on indexes with lock-free reads, tolerable before it; a volatile
   descriptor's crash engine must refuse, not fail the sweep. *)
let test_crash_sweep d () =
  let config =
    {
      C.default with
      C.writers = 1;
      readers = 0;
      ops_per_thread = 12;
      keyspace = 240;
      prefill = 120;
      max_crash_points = 40;
      crash_budget = 120;
      node_bytes = (small_config d).D.node_bytes;
    }
  in
  let r = C.run ~config d.D.name in
  Alcotest.(check (option string)) (d.D.name ^ " checkable") None r.C.skipped;
  List.iter
    (fun v ->
      Alcotest.failf "%s: %s violation: %s" d.D.name (C.kind_to_string v.C.kind)
        v.C.detail)
    r.C.violations;
  if d.D.caps.D.has_recovery then begin
    Alcotest.(check bool) (d.D.name ^ " span > 0") true (r.C.stores > 0);
    Alcotest.(check int)
      (d.D.name ^ " sampled points")
      (min 40 (r.C.stores + 1))
      r.C.crash_points;
    Alcotest.(check int)
      (d.D.name ^ " every mode at every point")
      (3 * r.C.crash_points) r.C.crash_runs
  end
  else Alcotest.(check int) (d.D.name ^ " volatile: no crash runs") 0 r.C.crash_runs

(* Unified persistent lifecycle: build by name, close, save the image,
   reload it, reopen purely from the manifest (no name supplied), and
   find everything intact. *)
let test_persist_roundtrip d () =
  let a = mk_arena () in
  let config = small_config d in
  let t = Registry.build ~config d.D.name a in
  let keys = Array.init 400 (fun i -> (i * 17) + 1) in
  t.Intf.bulk_insert (Array.map (fun k -> (k, value_of k)) keys);
  t.Intf.close ();
  let file = Filename.temp_file "ffreg" ".img" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Arena.save_to_file a file;
      let b = Arena.load_from_file file in
      Arena.power_fail b Storelog.Keep_all;
      let t' = Registry.open_existing b in
      Alcotest.(check string) "manifest routes reopen" d.D.name t'.Intf.name;
      t'.Intf.recover ();
      Array.iter
        (fun k ->
          Alcotest.(check (option int))
            (Printf.sprintf "%s key %d" d.D.name k)
            (Some (value_of k)) (t'.Intf.search k))
        keys;
      t'.Intf.close ())

let test_no_manifest () =
  let a = mk_arena () in
  match Registry.open_existing a with
  | _ -> Alcotest.fail "open_existing on blank arena should raise"
  | exception Invalid_argument _ -> ()

let per_descriptor d =
  let fuzz = [ Alcotest.test_case (d.D.name ^ " registry fuzz") `Quick (test_fuzz d) ] in
  let sweep =
    [ Alcotest.test_case (d.D.name ^ " crash sweep") `Quick (test_crash_sweep d) ]
  in
  let persist =
    if d.D.caps.D.is_persistent then
      [ Alcotest.test_case (d.D.name ^ " persist roundtrip") `Quick (test_persist_roundtrip d) ]
    else []
  in
  fuzz @ sweep @ persist

let suite =
  [
    Alcotest.test_case "registered names" `Quick test_names;
    Alcotest.test_case "unknown name error" `Quick test_unknown_name;
    Alcotest.test_case "no manifest" `Quick test_no_manifest;
  ]
  @ List.concat_map per_descriptor (Registry.all ())
