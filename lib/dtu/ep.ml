type send = {
  dst_tile : int;
  dst_ep : int;
  label : int;
  max_msg_size : int;
  max_credits : int;
  mutable credits : int;
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
}

let seen_cap = 256

let note_seen_tbl seen seen_fifo uid =
  Hashtbl.replace seen uid ();
  Queue.add uid seen_fifo;
  if Queue.length seen_fifo > seen_cap then
    Hashtbl.remove seen (Queue.pop seen_fifo)

let note_seen r uid = note_seen_tbl r.seen r.seen_fifo uid
let seen_before r uid = Hashtbl.mem r.seen uid

type mpmc = {
  mp_slots : int;
  mp_slot_size : int;
  mp_ack_batch : int;
  (* Monotonic reservation counters over the shared ring: a slot is reserved
     by bumping [mp_head] at delivery and released by bumping [mp_tail] at
     ack.  Occupancy is [mp_head - mp_tail]. *)
  mutable mp_head : int;
  mutable mp_tail : int;
  mp_pending : Msg.t Queue.t;
  mp_seen : (int, unit) Hashtbl.t;
  mp_seen_fifo : int Queue.t;
  (* Batched credit refunds: (src_tile, src_send_ep) -> credits owed.  Flushed
     as one credit packet per sender when [mp_refund_total] reaches
     [mp_ack_batch] or the queue drains. *)
  mp_refunds : (int * int, int) Hashtbl.t;
  mutable mp_refund_total : int;
}

let mp_occupied mp = mp.mp_head - mp.mp_tail
let mp_note_seen mp uid = note_seen_tbl mp.mp_seen mp.mp_seen_fifo uid
let mp_seen_before mp uid = Hashtbl.mem mp.mp_seen uid

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
  | Mpmc_recv of mpmc
  | Mem of mem

type t = { mutable cfg : config; mutable owner : Dtu_types.act_id }

let make_invalid () = { cfg = Invalid; owner = Dtu_types.invalid_act }

let send_config ~dst_tile ~dst_ep ?(label = 0) ~max_msg_size ~credits () =
  if credits <= 0 then invalid_arg "Ep.send_config: credits must be positive";
  Send { dst_tile; dst_ep; label; max_msg_size; max_credits = credits; credits }

let recv_config ~slots ~slot_size () =
  if slots <= 0 then invalid_arg "Ep.recv_config: slots must be positive";
  Recv
    {
      slots;
      slot_size;
      occupied = 0;
      pending = Queue.create ();
      seen = Hashtbl.create 8;
      seen_fifo = Queue.create ();
    }

let mpmc_config ~slots ~slot_size ?(ack_batch = 16) () =
  if slots <= 0 then invalid_arg "Ep.mpmc_config: slots must be positive";
  if ack_batch <= 0 then invalid_arg "Ep.mpmc_config: ack_batch must be positive";
  Mpmc_recv
    {
      mp_slots = slots;
      mp_slot_size = slot_size;
      mp_ack_batch = ack_batch;
      mp_head = 0;
      mp_tail = 0;
      mp_pending = Queue.create ();
      mp_seen = Hashtbl.create 8;
      mp_seen_fifo = Queue.create ();
      mp_refunds = Hashtbl.create 8;
      mp_refund_total = 0;
    }

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
  | Mpmc_recv mp ->
      if mp_occupied mp < 0 || mp_occupied mp > mp.mp_slots then
        invalid_arg
          (Printf.sprintf "Ep config invalid (%s): mpmc occupancy %d not in [0,%d]" ctx
             (mp_occupied mp) mp.mp_slots)
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
      Format.fprintf fmt "recv[slots=%d occ=%d pending=%d owner=%a]" r.slots
        r.occupied (Queue.length r.pending) Dtu_types.pp_act t.owner
  | Mpmc_recv mp ->
      Format.fprintf fmt "mpmc[slots=%d occ=%d pending=%d refunds=%d owner=%a]"
        mp.mp_slots (mp_occupied mp)
        (Queue.length mp.mp_pending)
        mp.mp_refund_total Dtu_types.pp_act t.owner
  | Mem m ->
      Format.fprintf fmt "mem[t%d base=%#x size=%#x owner=%a]" m.mem_tile m.base
        m.mem_size Dtu_types.pp_act t.owner
