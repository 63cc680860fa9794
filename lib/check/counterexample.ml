module Json = Ff_trace.Json

type explorer = Dfs | Pct

type rebal_kind = Rb_split | Rb_merge | Rb_migrate

type config = {
  writers : int;
  readers : int;
  ops : int;
  rounds : int;
  keyspace : int;
  prefill : int;
  seed : int;
  explorer : explorer;
  schedules : int;
  crashes : bool;
  non_tso : bool;
  mutant : bool;
  node_bytes : int option;
  tx_path : Ff_tx.Tx.path;
  rebal_kind : rebal_kind;
  nodes : int;
  shards : int;
}

let explorers = [ ("pct", Pct); ("dfs", Dfs) ]
let tx_paths = [ ("logged", Ff_tx.Tx.Logged); ("shadow", Ff_tx.Tx.Shadow) ]
let rebal_kinds = [ ("split", Rb_split); ("merge", Rb_merge); ("migrate", Rb_migrate) ]
let name_of table v = fst (List.find (fun (_, x) -> x = v) table)

type crash = {
  arena : int;
  store_count : int;
  mode : string;
  crash_seed : int;
  cutoff : int option;
}

type t = {
  family : string;
  index : string;
  config : config;
  kind : string;
  decisions : int array;
  crash : crash option;
  detail : string;
}

let version = 3

let opt f = function None -> Json.Null | Some x -> f x
let int n = Json.Int n

let config_to_json c =
  Json.Obj
    [
      ("writers", int c.writers);
      ("readers", int c.readers);
      ("ops", int c.ops);
      ("rounds", int c.rounds);
      ("keyspace", int c.keyspace);
      ("prefill", int c.prefill);
      ("seed", int c.seed);
      ("explorer", Json.Str (name_of explorers c.explorer));
      ("schedules", int c.schedules);
      ("crashes", Json.Bool c.crashes);
      ("non_tso", Json.Bool c.non_tso);
      ("mutant", Json.Bool c.mutant);
      ("node_bytes", opt int c.node_bytes);
      ("tx_path", Json.Str (name_of tx_paths c.tx_path));
      ("rebal_kind", Json.Str (name_of rebal_kinds c.rebal_kind));
      ("nodes", int c.nodes);
      ("shards", int c.shards);
    ]

let to_json t =
  Json.to_string
    (Json.Obj
       [
         ("version", int version);
         ("family", Json.Str t.family);
         ("index", Json.Str t.index);
         ("config", config_to_json t.config);
         ("kind", Json.Str t.kind);
         ("decisions", Json.Arr (Array.to_list (Array.map int t.decisions)));
         ( "crash",
           opt
             (fun c ->
               Json.Obj
                 [
                   ("arena", int c.arena);
                   ("store_count", int c.store_count);
                   ("mode", Json.Str c.mode);
                   ("seed", int c.crash_seed);
                   ("cutoff", opt int c.cutoff);
                 ])
             t.crash );
         ("detail", Json.Str t.detail);
       ])

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let field name conv j =
  match Json.member name j with
  | None -> Error (Printf.sprintf "counterexample: missing field %S" name)
  | Some v -> (
      match conv v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "counterexample: bad field %S" name))

let bool = function Json.Bool b -> Some b | _ -> None
let enum table v = Option.bind (Json.to_str v) (fun s -> List.assoc_opt s table)
let nullable conv = function Json.Null -> Some None | v -> Option.map Option.some (conv v)

let ints l =
  let a = List.filter_map Json.to_int l in
  if List.length a = List.length l then Some (Array.of_list a) else None

let config_of_json j =
  let int name = field name Json.to_int j in
  let* writers = int "writers" in
  let* readers = int "readers" in
  let* ops = int "ops" in
  let* rounds = int "rounds" in
  let* keyspace = int "keyspace" in
  let* prefill = int "prefill" in
  let* seed = int "seed" in
  let* explorer = field "explorer" (enum explorers) j in
  let* schedules = int "schedules" in
  let* crashes = field "crashes" bool j in
  let* non_tso = field "non_tso" bool j in
  let* mutant = field "mutant" bool j in
  let* node_bytes = field "node_bytes" (nullable Json.to_int) j in
  let* tx_path = field "tx_path" (enum tx_paths) j in
  let* rebal_kind = field "rebal_kind" (enum rebal_kinds) j in
  let* nodes = int "nodes" in
  let* shards = int "shards" in
  Ok
    {
      writers; readers; ops; rounds; keyspace; prefill; seed; explorer; schedules;
      crashes; non_tso; mutant; node_bytes; tx_path;
      rebal_kind; nodes; shards;
    }

let crash_of_json = function
  | Json.Null -> Ok None
  | j ->
      let* arena = field "arena" Json.to_int j in
      let* store_count = field "store_count" Json.to_int j in
      let* mode = field "mode" Json.to_str j in
      let* crash_seed = field "seed" Json.to_int j in
      let* cutoff = field "cutoff" (nullable Json.to_int) j in
      Ok (Some { arena; store_count; mode; crash_seed; cutoff })

let of_json s =
  match Json.of_string s with
  | exception Json.Parse_error m -> Error ("counterexample: " ^ m)
  | j ->
      let* v = field "version" Json.to_int j in
      if v <> version then
        Error (Printf.sprintf "counterexample: unsupported version %d" v)
      else
        let* family = field "family" Json.to_str j in
        let* index = field "index" Json.to_str j in
        let* config = Result.bind (field "config" Option.some j) config_of_json in
        let* kind = field "kind" Json.to_str j in
        let* decisions = field "decisions" (fun d -> Option.bind (Json.to_list d) ints) j in
        let* crash = Result.bind (field "crash" Option.some j) crash_of_json in
        let* detail = field "detail" Json.to_str j in
        Ok { family; index; config; kind; decisions; crash; detail }

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
