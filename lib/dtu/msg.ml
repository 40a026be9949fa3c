type data = ..
type data += Raw of bytes | Empty

let () =
  M3v_sim.Checkpoint.register_exts
    [ [%extension_constructor Raw]; [%extension_constructor Empty] ]

type t = {
  uid : int;
  src_tile : int;
  src_act : Dtu_types.act_id;
  src_send_ep : int option;
  label : int;
  reply_to : (int * int) option;
  size : int;
  data : data;
}

let header_bytes = 16

(* Wire-level sequence number: retransmitted copies of one logical message
   share a uid, so receivers can deduplicate.  Only equality of uids is
   ever observed, so allocation order does not leak into simulated time.
   Domain-local: a simulation run is confined to one domain, and equality
   within a run is all dedup needs, so per-domain counters are safe under
   parallel experiment sweeps. *)
let next_uid : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

(* Flow tracepoints embed uids as causal-flow ids, so a traced run must
   allocate them reproducibly: restart the counter whenever a domain's
   first trace sink is installed and for every traced task, and put it
   back after. *)
let () =
  M3v_obs.Trace.at_install (fun () ->
      let next = Domain.DLS.get next_uid in
      let saved = !next in
      next := 0;
      fun () -> next := saved)

(* Checkpoint/restore must capture the counter explicitly: it lives in
   domain-local storage, which [Marshal] does not traverse. *)
let uid_counter () = !(Domain.DLS.get next_uid)
let set_uid_counter v = Domain.DLS.get next_uid := v

let make ~src_tile ~src_act ?src_send_ep ?(label = 0) ?reply_to ~size data =
  if size < 0 then invalid_arg "Msg.make: negative size";
  let next = Domain.DLS.get next_uid in
  incr next;
  { uid = !next; src_tile; src_act; src_send_ep; label; reply_to; size; data }

let pp fmt t =
  Format.fprintf fmt "msg[from t%d/%a label=%d size=%d%s]" t.src_tile
    Dtu_types.pp_act t.src_act t.label t.size
    (match t.reply_to with
    | Some (tile, ep) -> Printf.sprintf " reply->t%d:ep%d" tile ep
    | None -> "")
