module Prng = Ff_util.Prng

type 'resp answer =
  | Reply of 'resp
  | Reply_from of { node : int; sent_ns : int; resp : 'resp }

type ('req, 'resp) endpoint = {
  ep_node : int;
  mutable ep_up : bool;
  mutable ep_handler : 'req -> 'resp answer;
  mutable ep_served : int;
  mutable ep_deduped : int;
}

let endpoint ~node handler =
  {
    ep_node = node;
    ep_up = true;
    ep_handler = handler;
    ep_served = 0;
    ep_deduped = 0;
  }

let set_handler ep h = ep.ep_handler <- h
let node ep = ep.ep_node
let up ep = ep.ep_up
let set_up ep b = ep.ep_up <- b
let served ep = ep.ep_served
let deduped ep = ep.ep_deduped

type error = Timeout

let timeout_ns = 20_000
let retries = 4
let backoff_ns = 2_000

let call ~fabric ~rng ~src ep req =
  (* The idempotency cache of this call: every duplicate delivery and
     every retry of the request belongs to this call, so none can
     arrive after it returns. *)
  let cached = ref None in
  let serve () =
    match !cached with
    | Some r ->
        (* Re-sent by the callee, whoever sent the first answer. *)
        ep.ep_deduped <- ep.ep_deduped + 1;
        Reply r
    | None ->
        let a = ep.ep_handler req in
        ep.ep_served <- ep.ep_served + 1;
        cached := Some (match a with Reply r | Reply_from { resp = r; _ } -> r);
        a
  in
  let rec attempt n =
    if n > retries then Error Timeout
    else begin
      if n > 0 then begin
        (* Jittered exponential backoff: base << (n-1) plus a uniform
           draw of the same magnitude. *)
        let base = backoff_ns lsl (n - 1) in
        Fabric.charge fabric (base + Prng.int rng (max 1 base))
      end;
      let v = Fabric.transmit fabric ~src ~dst:ep.ep_node in
      match v.Fabric.v_deliveries with
      | [] ->
          Fabric.charge fabric timeout_ns;
          attempt (n + 1)
      | _ when not ep.ep_up ->
          (* The request reaches a dead host: same as a loss. *)
          Fabric.charge fabric timeout_ns;
          attempt (n + 1)
      | d0 :: ds -> begin
          (* Deliver every copy: duplicates re-enter the endpoint and
             are answered from the call's cache. *)
          let deliver d =
            Fabric.charge fabric d;
            serve ()
          in
          let a = deliver d0 in
          List.iter (fun d -> ignore (deliver d)) ds;
          let r, from, sent =
            match a with
            | Reply r -> (r, ep.ep_node, Fabric.now fabric)
            | Reply_from { node; sent_ns; resp } -> (resp, node, sent_ns)
          in
          let rv = Fabric.transmit fabric ~src:from ~dst:src in
          match rv.Fabric.v_deliveries with
          | [] ->
              (* Reply lost: the handler ran; the retry is served from
                 the cache without re-executing it. *)
              Fabric.charge fabric timeout_ns;
              attempt (n + 1)
          | d :: _ ->
              (* The reply arrives [d] after it was sent, and not
                 before now: a reply sent earlier by another node
                 overlaps the time already charged. *)
              Fabric.charge fabric (sent + d - Fabric.now fabric);
              Ok r
        end
    end
  in
  attempt 0
