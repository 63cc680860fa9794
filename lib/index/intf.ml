type ops = {
  name : string;
  insert : int -> int -> unit;
  search : int -> int option;
  delete : int -> bool;
  range : int -> int -> (int -> int -> unit) -> unit;
  recover : unit -> unit;
  update : int -> int -> bool;
  bulk_insert : (int * int) array -> unit;
  close : unit -> unit;
  set_tracer : Ff_trace.Trace.t -> unit;
  read_for_update : int -> int option;
  install : int -> int option -> unit;
  snapshot_begin : int -> int;
  read_at : int -> int -> int option;
  range_at : int -> int -> int -> (int -> int -> unit) -> unit;
  gc_before : int -> int;
}

let make ~name ~insert ~search ~delete ~range ~recover ?update ?bulk_insert
    ?(close = fun () -> ()) ?(set_tracer = fun _ -> ()) ?read_for_update
    ?install ?snapshot_begin ?read_at ?range_at ?gc_before () =
  let update =
    match update with
    | Some u -> u
    | None -> (
        fun k v ->
          match search k with
          | None -> false
          | Some _ ->
              insert k v;
              true)
  in
  let bulk_insert =
    match bulk_insert with
    | Some b -> b
    | None -> fun pairs -> Array.iter (fun (k, v) -> insert k v) pairs
  in
  let read_for_update =
    match read_for_update with Some r -> r | None -> search
  in
  let install =
    match install with
    | Some i -> i
    | None -> (
        fun k -> function
          | Some v -> insert k v
          | None -> ignore (delete k))
  in
  let unsupported hook _ =
    invalid_arg (Printf.sprintf "%s: %s unsupported (not snapshottable)" name hook)
  in
  let snapshot_begin =
    match snapshot_begin with Some f -> f | None -> unsupported "snapshot_begin"
  in
  let read_at =
    match read_at with Some f -> f | None -> fun e _ -> unsupported "read_at" e
  in
  let range_at =
    match range_at with
    | Some f -> f
    | None -> fun e _ _ _ -> unsupported "range_at" e
  in
  let gc_before =
    match gc_before with Some f -> f | None -> unsupported "gc_before"
  in
  {
    name;
    insert;
    search;
    delete;
    range;
    recover;
    update;
    bulk_insert;
    close;
    set_tracer;
    read_for_update;
    install;
    snapshot_begin;
    read_at;
    range_at;
    gc_before;
  }

let range_count t lo hi =
  let n = ref 0 in
  t.range lo hi (fun _ _ -> incr n);
  !n

let range_list t lo hi =
  let acc = ref [] in
  t.range lo hi (fun k v -> acc := (k, v) :: !acc);
  List.rev !acc
