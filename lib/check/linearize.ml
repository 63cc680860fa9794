type call = {
  opid : int;
  tid : int;
  op : Spec.op;
  mutable inv : int;
  mutable resp : Spec.resp option;
  mutable ret : int;
}

let make_call ~opid ~tid op = { opid; tid; op; inv = -1; resp = None; ret = max_int }

let pp_call c =
  Printf.sprintf "  t%d #%d %s -> %s [%d,%s]" c.tid c.opid (Spec.op_to_string c.op)
    (match c.resp with None -> "pending" | Some r -> Spec.resp_to_string r)
    c.inv
    (if c.ret = max_int then "crash" else string_of_int c.ret)

let pp_history calls =
  let by_inv = Array.copy calls in
  Array.sort (fun a b -> compare a.inv b.inv) by_inv;
  String.concat "\n" (Array.to_list (Array.map pp_call by_inv))

let max_ops = 62

exception Linearized

(* WGL (Wing & Gong) search: repeatedly pick a minimal operation — one
   invoked before every response still outstanding — apply it to the
   model, and require the model's response to match the observed one.
   States are memoized on (remaining-ops bitmask, model bindings) so
   schedules whose interleavings commute are explored once.

   Pending operations (invoked, no response — the thread was running
   when the power failed) may linearize or not, which is exactly the
   durable-linearizability rule: completed operations must take
   effect, in-flight ones are free to.  When [final] is given, a
   terminal state additionally must reproduce it — the post-recovery
   dump must be explained by the completed ops plus some subset of the
   in-flight ones. *)
let check ?(initial = []) ?final calls =
  let n = Array.length calls in
  if n > max_ops then
    invalid_arg
      (Printf.sprintf "Linearize.check: %d ops > %d (history too long)" n max_ops);
  let completed_mask = ref 0 in
  Array.iteri (fun i c -> if c.resp <> None then completed_mask := !completed_mask lor (1 lsl i)) calls;
  let completed_mask = !completed_mask in
  let memo = Hashtbl.create 1024 in
  let rec go mask state =
    let key = (mask, state) in
    if not (Hashtbl.mem memo key) then begin
      Hashtbl.add memo key ();
      if
        mask land completed_mask = 0
        && (match final with None -> true | Some f -> state = f)
      then raise Linearized;
      (* earliest response among ops not yet linearized *)
      let min_ret = ref max_int in
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 && calls.(i).ret < !min_ret then
          min_ret := calls.(i).ret
      done;
      for i = 0 to n - 1 do
        if mask land (1 lsl i) <> 0 && calls.(i).inv < !min_ret then begin
          let c = calls.(i) in
          let state', r = Spec.apply state c.op in
          match c.resp with
          | Some observed when observed <> r -> () (* spec contradicts observation *)
          | _ -> go (mask land lnot (1 lsl i)) state'
        end
      done
    end
  in
  try
    go ((1 lsl n) - 1) (List.sort compare initial);
    let reason =
      match final with
      | None -> "no linearization of the history exists"
      | Some f ->
          Printf.sprintf
            "no linearization of the completed ops (plus any subset of in-flight \
             ops) reproduces the observed final state %s"
            (Spec.show_state f)
    in
    Error (Printf.sprintf "%s\nhistory (by invocation):\n%s" reason (pp_history calls))
  with Linearized -> Ok ()
