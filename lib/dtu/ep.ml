type send = {
  dst_tile : int;
  dst_ep : int;
  label : int;
  max_msg_size : int;
  max_credits : int;
  mutable credits : int;
}

type batch = {
  ack_batch : int;
  (* Credits owed per sender: (src_tile, src_send_ep) -> count.  Flushed
     as one credit packet per sender when [refund_total] reaches
     [ack_batch] or the queue drains. *)
  refunds : (int * int, int) Hashtbl.t;
  mutable refund_total : int;
}

type recv = {
  slots : int;
  slot_size : int;
  mutable occupied : int;
  pending : Msg.t Queue.t;
  (* Receiver-side dedup under fault injection: uids of recently delivered
     messages, bounded FIFO.  Unused (and empty) when faults are off. *)
  seen : (int, unit) Hashtbl.t;
  seen_fifo : int Queue.t;
  batch : batch option;
}

let seen_cap = 256

let note_seen r uid =
  Hashtbl.replace r.seen uid ();
  Queue.add uid r.seen_fifo;
  if Queue.length r.seen_fifo > seen_cap then
    Hashtbl.remove r.seen (Queue.pop r.seen_fifo)

let seen_before r uid = Hashtbl.mem r.seen uid

type mem = {
  mem_tile : int;
  base : int;
  mem_size : int;
  perm : Dtu_types.perm;
}

type config =
  | Invalid
  | Send of send
  | Recv of recv
  | Mem of mem

type t = { mutable cfg : config; mutable owner : Dtu_types.act_id }

let make_invalid () = { cfg = Invalid; owner = Dtu_types.invalid_act }

let send_config ~dst_tile ~dst_ep ?(label = 0) ~max_msg_size ~credits () =
  if credits <= 0 then invalid_arg "Ep.send_config: credits must be positive";
  Send { dst_tile; dst_ep; label; max_msg_size; max_credits = credits; credits }

let make_recv ~slots ~slot_size batch =
  Recv
    {
      slots;
      slot_size;
      occupied = 0;
      pending = Queue.create ();
      seen = Hashtbl.create 8;
      seen_fifo = Queue.create ();
      batch;
    }

let recv_config ~slots ~slot_size () =
  if slots <= 0 then invalid_arg "Ep.recv_config: slots must be positive";
  make_recv ~slots ~slot_size None

let mpmc_config ~slots ~slot_size ?(ack_batch = 16) () =
  if slots <= 0 then invalid_arg "Ep.mpmc_config: slots must be positive";
  if ack_batch <= 0 then invalid_arg "Ep.mpmc_config: ack_batch must be positive";
  make_recv ~slots ~slot_size
    (Some { ack_batch; refunds = Hashtbl.create 8; refund_total = 0 })

(* Satellite: credit-accounting invariant, asserted at every mutation site.
   A send endpoint must never hold negative credits nor more than it was
   configured with — violations indicate a refund raced a revoke/restore. *)
let check_credits ~ctx (s : send) =
  if s.credits < 0 || s.credits > s.max_credits then
    invalid_arg
      (Printf.sprintf "Ep credit invariant violated (%s): credits=%d not in [0,%d]"
         ctx s.credits s.max_credits)

let validate_config ~ctx cfg =
  match cfg with
  | Send s ->
      if s.max_credits <= 0 then
        invalid_arg (Printf.sprintf "Ep config invalid (%s): max_credits=%d" ctx s.max_credits);
      check_credits ~ctx s
  | Recv r ->
      if r.occupied < 0 || r.occupied > r.slots then
        invalid_arg
          (Printf.sprintf "Ep config invalid (%s): occupied=%d not in [0,%d]" ctx r.occupied
             r.slots)
  | Invalid | Mem _ -> ()

let mem_config ~mem_tile ~base ~size ~perm =
  if size <= 0 || base < 0 then invalid_arg "Ep.mem_config: bad window";
  Mem { mem_tile; base; mem_size = size; perm }

let pp fmt t =
  match t.cfg with
  | Invalid -> Format.pp_print_string fmt "invalid"
  | Send s ->
      Format.fprintf fmt "send[->t%d:ep%d credits=%d/%d owner=%a]" s.dst_tile
        s.dst_ep s.credits s.max_credits Dtu_types.pp_act t.owner
  | Recv r ->
      Format.fprintf fmt "%s[slots=%d occ=%d pending=%d%s owner=%a]"
        (match r.batch with None -> "recv" | Some _ -> "mpmc")
        r.slots r.occupied (Queue.length r.pending)
        (match r.batch with
        | None -> ""
        | Some b -> Printf.sprintf " refunds=%d" b.refund_total)
        Dtu_types.pp_act t.owner
  | Mem m ->
      Format.fprintf fmt "mem[t%d base=%#x size=%#x owner=%a]" m.mem_tile m.base
        m.mem_size Dtu_types.pp_act t.owner
