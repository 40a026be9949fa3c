open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module Fault = M3v_fault.Fault

let timeout = M3v_sim.Time.ms 8
let attempts = 3

(* Drop stale replies (from a timed-out attempt, or addressed to a
   pre-crash incarnation of this client) so a retried request cannot pair
   with an old response. *)
let rec drain reply_ep =
  let* m = A.try_recv ~eps:[ reply_ep ] in
  match m with
  | None -> Proc.return ()
  | Some (_ep, msg) ->
      let* () = A.ack ~ep:reply_ep msg in
      drain reply_ep

let malformed () = failwith "Rpc: malformed reply"

let call ~sgate ~reply_ep ~size ~tag ~wrap ~tag_of ~rep_of ~give_up req =
  if not (Fault.on ()) then
    let* msg = A.call ~sgate ~reply_ep ~size (wrap tag req) in
    let tag' = tag_of msg.Msg.data in
    if tag' = tag then Proc.return (rep_of msg.Msg.data)
    else if tag' < 0 then malformed ()
    else failwith "Rpc: reply tag mismatch"
  else
    let rec attempt n =
      let* r = A.call_timeout ~sgate ~reply_ep ~size ~timeout (wrap tag req) in
      check r n
    and check r n =
      match r with
      | None ->
          if n >= attempts then Proc.return give_up
          else
            let* () = drain reply_ep in
            attempt (n + 1)
      | Some msg ->
          let tag' = tag_of msg.Msg.data in
          if tag' = tag then Proc.return (rep_of msg.Msg.data)
          else if tag' < 0 then malformed ()
          else
            (* Reply to an earlier, abandoned attempt: discard it and keep
               waiting for ours without resending. *)
            let* r = A.recv_timeout ~eps:[ reply_ep ] ~timeout in
            let* r =
              match r with
              | None -> Proc.return None
              | Some (_ep, m) ->
                  let* () = A.ack ~ep:reply_ep m in
                  Proc.return (Some m)
            in
            check r n
    in
    (* Drain first as well: a restarted incarnation of this client may
       find replies addressed to its predecessor still queued. *)
    let* () = drain reply_ep in
    attempt 1
