module Prng = Ff_util.Prng

type op = Put of int * int | Del of int

type values = int ref

let values () = ref 0

let fresh vc =
  let v = (2 * !vc) + 1 in
  incr vc;
  v

let prefill vc ~prefill ~keyspace =
  List.init (min prefill keyspace) (fun i -> (i + 1, fresh vc))

let draw vc rng ~keyspace =
  let key = 1 + Prng.int rng keyspace in
  if Prng.int rng 4 = 0 then Del key else Put (key, fresh vc)

let key = function Put (k, _) | Del k -> k

let apply state = function
  | Put (k, v) -> (k, v) :: List.remove_assoc k state
  | Del k -> List.remove_assoc k state

type t = {
  initial : (int * int) list;
  log : op array;
  states : (int * int) list array;
}

let create rng ~prefill:n_prefill ~keyspace n =
  let vc = values () in
  let initial = prefill vc ~prefill:n_prefill ~keyspace in
  let log = Array.init n (fun _ -> draw vc rng ~keyspace) in
  let states = Array.make (n + 1) [] in
  states.(0) <- List.sort compare initial;
  Array.iteri
    (fun i op -> states.(i + 1) <- List.sort compare (apply states.(i) op))
    log;
  { initial; log; states }

let writable s =
  Array.fold_left
    (fun acc op -> match op with Put (k, v) -> (k, v) :: acc | Del _ -> acc)
    s.initial s.log

let show_state st =
  "{"
  ^ String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%d->%d" k v) st)
  ^ "}"

let show_binding = function Some v -> string_of_int v | None -> "absent"
