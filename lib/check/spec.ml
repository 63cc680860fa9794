module Prng = Ff_util.Prng

type state = (int * int) list
type op = Insert of int * int | Delete of int | Search of int
type resp = Done | Deleted of bool | Found of int option

let rec put k v = function
  | ((k', _) as b) :: rest when k' < k -> b :: put k v rest
  | (k', _) :: rest when k' = k -> (k, v) :: rest
  | rest -> (k, v) :: rest

let apply s = function
  | Insert (k, v) -> (put k v s, Done)
  | Delete k -> (List.remove_assoc k s, Deleted (List.mem_assoc k s))
  | Search k -> (s, Found (List.assoc_opt k s))

let op_to_string = function
  | Insert (k, v) -> Printf.sprintf "insert(%d,%d)" k v
  | Delete k -> Printf.sprintf "delete(%d)" k
  | Search k -> Printf.sprintf "search(%d)" k

let resp_to_string = function
  | Done -> "ok"
  | Deleted b -> Printf.sprintf "deleted:%b" b
  | Found None -> "none"
  | Found (Some v) -> Printf.sprintf "found:%d" v

let show_state st =
  "{"
  ^ String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) st)
  ^ "}"

let show_binding = function Some v -> string_of_int v | None -> "absent"

type values = int ref

let values () = ref 0

let fresh vc =
  let v = (2 * !vc) + 1 in
  incr vc;
  v

let prefill vc ~prefill ~keyspace =
  let n = min prefill keyspace in
  List.init n (fun i -> ((i + 1) * keyspace / n, fresh vc))

let draw vc rng ~keyspace =
  let key = 1 + Prng.int rng keyspace in
  if Prng.int rng 4 = 0 then Delete key else Insert (key, fresh vc)

type t = { initial : (int * int) list; log : op list array; states : state array }

let make ~initial log =
  let states = Array.make (Array.length log + 1) (List.sort compare initial) in
  Array.iteri
    (fun i entry ->
      states.(i + 1) <-
        List.fold_left (fun s op -> fst (apply s op)) states.(i) entry)
    log;
  { initial; log; states }

let create rng ~prefill:n_prefill ~keyspace ~per_entry n =
  let vc = values () in
  let initial = prefill vc ~prefill:n_prefill ~keyspace in
  make ~initial
    (Array.init n (fun _ -> List.init per_entry (fun _ -> draw vc rng ~keyspace)))

let initial t = t.initial
let log t = t.log
let length t = Array.length t.log
let state t i = t.states.(i)
let written t k v =
  List.mem (k, v) t.initial || Array.exists (List.mem (Insert (k, v))) t.log

type observation = Map of state | Key of int * int option

(* (key, observed, prefix state) for every key on which [st] disagrees
   with the observation. *)
let diff obs st =
  let keys, seen =
    match obs with
    | Key (k, v) -> ([ k ], fun _ -> v)
    | Map m ->
        (List.sort_uniq compare (List.map fst (m @ st)), fun k -> List.assoc_opt k m)
  in
  List.filter_map
    (fun k ->
      let want = List.assoc_opt k st in
      if seen k = want then None else Some (k, seen k, want))
    keys

let show_obs = function
  | Map s -> show_state s
  | Key (k, v) -> Printf.sprintf "key %d = %s" k (show_binding v)

let window t ~lo ~hi obs =
  if lo < 0 || hi < lo || hi > length t then
    invalid_arg (Printf.sprintf "Spec.window [%d, %d] of %d" lo hi (length t));
  let rec first p =
    if p > hi then None
    else if diff obs t.states.(p) = [] then Some p
    else first (p + 1)
  in
  match first lo with
  | Some p -> Ok p
  | None ->
      let score p =
        (List.length (diff obs t.states.(p)), max 0 (max (lo - p) (p - hi)), p)
      in
      let best = ref lo in
      for p = 0 to length t do
        if score p < score !best then best := p
      done;
      let p = !best in
      let nearest =
        match diff obs t.states.(p) with
        | [] -> Printf.sprintf "prefix %d does, outside the window" p
        | ds ->
            Printf.sprintf "nearest is prefix %d, where %s" p
              (String.concat ", "
                 (List.map
                    (fun (k, seen, want) ->
                      Printf.sprintf "key %d is %s, not %s" k (show_binding want)
                        (show_binding seen))
                    ds))
      in
      Error
        (Printf.sprintf "%s: no prefix in [%d, %d] matches; %s" (show_obs obs) lo hi
           nearest)
