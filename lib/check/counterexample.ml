module Json = Ff_trace.Json

type workload = {
  writers : int;
  readers : int;
  ops_per_thread : int;
  keyspace : int;
  prefill : int;
  seed : int;
  non_tso : bool;
  elide_flush : bool;
}

type crash = {
  store_count : int;
  mode : string;
  crash_seed : int;
  cutoff : int option;
}

type tx_info = {
  path : string; (* "logged" | "shadow" *)
  torn : bool;
  txns : int;
}

type snap_info = {
  mutant : bool; (* read-latest mutant armed *)
  rounds : int;
}

type rebal_info = {
  rb_kind : string; (* "split" | "merge" | "migrate" *)
  rb_mutant : bool; (* drop-delta mutant armed *)
  rb_shards : int;  (* shard count before the rebalance *)
  rb_arena : int;   (* crash-plan arena: 0 = source, 1 = migrate dst *)
}

type repl_info = {
  rp_mutant : bool;    (* ack-before-replicate mutant armed *)
  rp_nodes : int;      (* cluster node count *)
  rp_shards : int;     (* shards per node ensemble *)
  rp_fault_seed : int; (* fabric fault-plan seed *)
  rp_kill_at : int;    (* kill primary after this many acks; -1 = never *)
  rp_partition : bool; (* partition primary/backup before the kill *)
  rp_recovery : string; (* "failover" | "restart" | "restart_refail" *)
}

type t = {
  index : string;
  node_bytes : int option;
  kind : string;
  workload : workload;
  tx : tx_info option;
  snap : snap_info option;
  rebal : rebal_info option;
  repl : repl_info option;
  decisions : int array;
  crash : crash option;
  detail : string;
}

let version = 1

let opt f = function None -> Json.Null | Some x -> f x

let to_json t =
  let w = t.workload in
  Json.to_string
    (Json.Obj
       [
         ("version", Json.Int version);
         ("index", Json.Str t.index);
         ("node_bytes", opt (fun n -> Json.Int n) t.node_bytes);
         ("kind", Json.Str t.kind);
         ( "workload",
           Json.Obj
             [
               ("writers", Json.Int w.writers);
               ("readers", Json.Int w.readers);
               ("ops_per_thread", Json.Int w.ops_per_thread);
               ("keyspace", Json.Int w.keyspace);
               ("prefill", Json.Int w.prefill);
               ("seed", Json.Int w.seed);
               ("non_tso", Json.Bool w.non_tso);
               ("elide_flush", Json.Bool w.elide_flush);
             ] );
         ( "tx",
           opt
             (fun x ->
               Json.Obj
                 [
                   ("path", Json.Str x.path);
                   ("torn", Json.Bool x.torn);
                   ("txns", Json.Int x.txns);
                 ])
             t.tx );
         ( "snap",
           opt
             (fun s ->
               Json.Obj
                 [ ("mutant", Json.Bool s.mutant); ("rounds", Json.Int s.rounds) ])
             t.snap );
         ( "rebal",
           opt
             (fun r ->
               Json.Obj
                 [
                   ("rb_kind", Json.Str r.rb_kind);
                   ("rb_mutant", Json.Bool r.rb_mutant);
                   ("rb_shards", Json.Int r.rb_shards);
                   ("rb_arena", Json.Int r.rb_arena);
                 ])
             t.rebal );
         ( "repl",
           opt
             (fun r ->
               Json.Obj
                 [
                   ("rp_mutant", Json.Bool r.rp_mutant);
                   ("rp_nodes", Json.Int r.rp_nodes);
                   ("rp_shards", Json.Int r.rp_shards);
                   ("rp_fault_seed", Json.Int r.rp_fault_seed);
                   ("rp_kill_at", Json.Int r.rp_kill_at);
                   ("rp_partition", Json.Bool r.rp_partition);
                   ("rp_recovery", Json.Str r.rp_recovery);
                 ])
             t.repl );
         ( "decisions",
           Json.Arr (Array.to_list (Array.map (fun d -> Json.Int d) t.decisions)) );
         ( "crash",
           opt
             (fun c ->
               Json.Obj
                 [
                   ("store_count", Json.Int c.store_count);
                   ("mode", Json.Str c.mode);
                   ("seed", Json.Int c.crash_seed);
                   ("cutoff", opt (fun e -> Json.Int e) c.cutoff);
                 ])
             t.crash );
         ("detail", Json.Str t.detail);
       ])

let field name conv j =
  match Json.member name j with
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "counterexample: bad field %S" name))
  | None -> Error (Printf.sprintf "counterexample: missing field %S" name)

(* Tolerant optional members: absent or of the wrong type reads as the
   default. *)
let bool_or default name j =
  match Json.member name j with Some (Json.Bool b) -> b | _ -> default

let int_or default name j =
  match Json.member name j with Some (Json.Int n) -> n | _ -> default

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* Optional extension members (absent or [null] in artifacts of other
   families and in older ones, so the version stays 1). *)
let extension name parse j =
  match Json.member name j with
  | None | Some Json.Null -> Ok None
  | Some x -> Result.map Option.some (parse x)

let of_json s =
  match Json.of_string s with
  | exception Json.Parse_error m -> Error ("counterexample: " ^ m)
  | j ->
      let* v = field "version" Json.to_int j in
      if v <> version then
        Error (Printf.sprintf "counterexample: unsupported version %d" v)
      else
        let* index = field "index" Json.to_str j in
        let node_bytes =
          match Json.member "node_bytes" j with
          | Some (Json.Int n) -> Some n
          | _ -> None
        in
        let* kind = field "kind" Json.to_str j in
        let* wj = field "workload" Option.some j in
        let* writers = field "writers" Json.to_int wj in
        let* readers = field "readers" Json.to_int wj in
        let* ops_per_thread = field "ops_per_thread" Json.to_int wj in
        let* keyspace = field "keyspace" Json.to_int wj in
        let* prefill = field "prefill" Json.to_int wj in
        let* seed = field "seed" Json.to_int wj in
        let non_tso = bool_or false "non_tso" wj in
        let elide_flush = bool_or false "elide_flush" wj in
        let* tx =
          extension "tx"
            (fun xj ->
              let* path = field "path" Json.to_str xj in
              let* txns = field "txns" Json.to_int xj in
              Ok { path; torn = bool_or false "torn" xj; txns })
            j
        in
        let* snap =
          extension "snap"
            (fun sj ->
              let* rounds = field "rounds" Json.to_int sj in
              Ok { mutant = bool_or false "mutant" sj; rounds })
            j
        in
        let* rebal =
          extension "rebal"
            (fun rj ->
              let* rb_kind = field "rb_kind" Json.to_str rj in
              let* rb_shards = field "rb_shards" Json.to_int rj in
              Ok
                {
                  rb_kind;
                  rb_mutant = bool_or false "rb_mutant" rj;
                  rb_shards;
                  rb_arena = int_or 0 "rb_arena" rj;
                })
            j
        in
        let* repl =
          extension "repl"
            (fun rj ->
              let* rp_nodes = field "rp_nodes" Json.to_int rj in
              let* rp_shards = field "rp_shards" Json.to_int rj in
              let* rp_fault_seed = field "rp_fault_seed" Json.to_int rj in
              Ok
                {
                  rp_mutant = bool_or false "rp_mutant" rj;
                  rp_nodes;
                  rp_shards;
                  rp_fault_seed;
                  rp_kill_at = int_or (-1) "rp_kill_at" rj;
                  rp_partition = bool_or false "rp_partition" rj;
                  rp_recovery =
                    (match Json.member "rp_recovery" rj with
                    | Some (Json.Str s) -> s
                    | _ -> "failover");
                })
            j
        in
        let* decisions = field "decisions" Json.to_list j in
        let* decisions =
          try
            Ok
              (Array.of_list
                 (List.map
                    (fun d ->
                      match Json.to_int d with
                      | Some i -> i
                      | None -> failwith "non-int decision")
                    decisions))
          with Failure m -> Error ("counterexample: " ^ m)
        in
        let* crash =
          extension "crash"
            (fun cj ->
              let* store_count = field "store_count" Json.to_int cj in
              let* mode = field "mode" Json.to_str cj in
              let* crash_seed = field "seed" Json.to_int cj in
              let cutoff =
                match Json.member "cutoff" cj with
                | Some (Json.Int e) -> Some e
                | _ -> None
              in
              Ok { store_count; mode; crash_seed; cutoff })
            j
        in
        let* detail = field "detail" Json.to_str j in
        Ok
          {
            index;
            node_bytes;
            kind;
            workload =
              {
                writers;
                readers;
                ops_per_thread;
                keyspace;
                prefill;
                seed;
                non_tso;
                elide_flush;
              };
            tx;
            snap;
            rebal;
            repl;
            decisions;
            crash;
            detail;
          }

let save t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_json t);
      output_char oc '\n')

let load path =
  match open_in path with
  | exception Sys_error m -> Error m
  | ic ->
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      of_json s
