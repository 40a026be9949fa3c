module Dtu_types = M3v_dtu.Dtu_types

type rgate = {
  rg_slots : int;
  rg_slot_size : int;
  rg_ack_batch : int option;
  mutable rg_loc : (int * int) option;
}

type obj =
  | Rgate of rgate
  | Sgate of { sg_rgate : rgate; sg_label : int; sg_credits : int }
  | Mgate of {
      mg_tile : int;
      mg_base : int;
      mg_size : int;
      mg_perm : Dtu_types.perm;
    }

type t = {
  sel : int;
  owner : Dtu_types.act_id;
  obj : obj;
  mutable children : t list;
  mutable parent : t option;
  mutable live : bool;
  mutable activated : (int * int) list;
}

let make ~sel ~owner obj =
  { sel; owner; obj; children = []; parent = None; live = true; activated = [] }

let derive parent ~sel ~owner obj =
  if not parent.live then invalid_arg "Cap.derive: parent is revoked";
  let child = { (make ~sel ~owner obj) with parent = Some parent } in
  parent.children <- child :: parent.children;
  child

let perm_intersect a b =
  let open Dtu_types in
  match (a, b) with
  | RW, p | p, RW -> Some p
  | R, R -> Some R
  | W, W -> Some W
  | R, W | W, R -> None

let derive_mem parent ~sel ~owner ~off ~len ~perm =
  if not parent.live then Error "parent capability is revoked"
  else
    match parent.obj with
    | Mgate m ->
        if off < 0 || len <= 0 || off + len > m.mg_size then
          Error "derived range out of bounds"
        else (
          match perm_intersect m.mg_perm perm with
          | None -> Error "derived permissions exceed parent"
          | Some perm ->
              let obj =
                Mgate
                  {
                    mg_tile = m.mg_tile;
                    mg_base = m.mg_base + off;
                    mg_size = len;
                    mg_perm = perm;
                  }
              in
              Ok (derive parent ~sel ~owner obj))
    | Rgate _ | Sgate _ -> Error "not a memory capability"

let note_activation t ~tile ~ep = t.activated <- (tile, ep) :: t.activated

let revoke t =
  let killed = ref [] and eps = ref [] in
  let rec walk cap =
    if cap.live then begin
      cap.live <- false;
      killed := cap :: !killed;
      eps := cap.activated @ !eps;
      cap.activated <- [];
      List.iter walk cap.children;
      cap.children <- []
    end
  in
  walk t;
  (* Detach from the parent so the subtree can be collected. *)
  (match t.parent with
  | Some p -> p.children <- List.filter (fun c -> c != t) p.children
  | None -> ());
  (!killed, !eps)

let rec live_count t =
  (if t.live then 1 else 0)
  + List.fold_left (fun acc c -> acc + live_count c) 0 t.children
