type key = Dtu_types.act_id * int
type entry = { ppage : int; perm : Dtu_types.perm }

type stats = { hits : int; misses : int; perm_upgrades : int; evictions : int }

type t = {
  capacity : int;
  entries : (key, entry) Hashtbl.t;
  mutable fifo : key Queue.t;
  mutable hits : int;
  mutable misses : int;
  mutable perm_upgrades : int;
  mutable evictions : int;
}

let create ~capacity =
  if capacity <= 0 then invalid_arg "Tlb.create: capacity must be positive";
  {
    capacity;
    entries = Hashtbl.create capacity;
    fifo = Queue.create ();
    hits = 0;
    misses = 0;
    perm_upgrades = 0;
    evictions = 0;
  }

let capacity t = t.capacity

let lookup t ~act ~vpage ~write =
  match Hashtbl.find_opt t.entries (act, vpage) with
  | Some e when (not write) || Dtu_types.perm_allows_write e.perm ->
      t.hits <- t.hits + 1;
      Some e.ppage
  | Some _ ->
      (* The mapping exists but lacks write permission: the command fails
         like a miss, but TileMux only upgrades the entry instead of
         translating from scratch — count it separately. *)
      t.perm_upgrades <- t.perm_upgrades + 1;
      None
  | None ->
      t.misses <- t.misses + 1;
      None

let evict_one t =
  (* The FIFO may contain stale keys for entries already invalidated;
     skip those. *)
  let rec loop () =
    match Queue.take_opt t.fifo with
    | None -> ()
    | Some key ->
        if Hashtbl.mem t.entries key then begin
          Hashtbl.remove t.entries key;
          t.evictions <- t.evictions + 1
        end
        else loop ()
  in
  loop ()

let insert t ~act ~vpage ~ppage ~perm =
  let key = (act, vpage) in
  if not (Hashtbl.mem t.entries key) then begin
    if Hashtbl.length t.entries >= t.capacity then evict_one t;
    Queue.add key t.fifo
  end;
  Hashtbl.replace t.entries key { ppage; perm }

(* Rebuild the eviction FIFO keeping only keys that still map to live
   entries.  Without this, every invalidation leaves its key behind and the
   FIFO grows without bound across activity switches in long runs (and a
   re-inserted page would appear twice, skewing eviction order). *)
let compact_fifo t =
  let fresh = Queue.create () in
  Queue.iter
    (fun key -> if Hashtbl.mem t.entries key then Queue.add key fresh)
    t.fifo;
  t.fifo <- fresh

(* Export one activity's live mappings, sorted by vpage so migration
   re-installs them in a deterministic order on the target DTU. *)
let entries_of_act t act =
  Hashtbl.fold
    (fun (a, vpage) e acc -> if a = act then (vpage, e) :: acc else acc)
    t.entries []
  |> List.sort (fun (va, _) (vb, _) -> Stdlib.compare va vb)

let invalidate_act t act =
  let stale =
    Hashtbl.fold (fun (a, p) _ acc -> if a = act then (a, p) :: acc else acc)
      t.entries []
  in
  List.iter (Hashtbl.remove t.entries) stale;
  if stale <> [] then compact_fifo t

let invalidate_page t ~act ~vpage =
  if Hashtbl.mem t.entries (act, vpage) then begin
    Hashtbl.remove t.entries (act, vpage);
    compact_fifo t
  end

let flush t =
  Hashtbl.reset t.entries;
  Queue.clear t.fifo

let entry_count t = Hashtbl.length t.entries
let fifo_length t = Queue.length t.fifo

let stats t =
  {
    hits = t.hits;
    misses = t.misses;
    perm_upgrades = t.perm_upgrades;
    evictions = t.evictions;
  }
