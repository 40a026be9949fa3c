(* The event queue stores each event as an untyped (handler, argument)
   pair in the two payload slots of [Event_queue.t2]:

     - [at]/[after] store the shared [run_thunk] handler and the thunk
       itself as the argument — no wrapper allocation;
     - [at_apply]/[after_apply] store the user's ['a -> unit] continuation
       (coerced to [Obj.t -> unit]) and its ['a] argument — the dominant
       DTU-completion pattern [fun () -> k result] costs no closure.

   The [Obj] coercions never escape this module: [push] always pairs a
   handler with an argument of the type it was declared against, so the
   application in [run] is well-typed by construction. *)

type handler = Obj.t -> unit

(* A parked retry loop (see [spin]).  It alternates two steps: a poll,
   then, if the poll found the command would fail again, that failure's
   completion [settle] later, then the next poll [gap] after that.
   [due] and [seq] are the next step's slot in the [(time, seq)] order;
   [slot] is the loop's index in [t.spins]. *)
type spin = {
  gap : Time.t;
  settle : Time.t;
  poll : unit -> bool;
  settled : unit -> unit;
  mutable due : Time.t;
  mutable seq : int;
  mutable settling : bool;  (* the next step is a completion *)
  mutable slot : int;
}

type t = {
  mutable now : Time.t;
  queue : (handler, Obj.t) Event_queue.t2;
  mutable processed : int;
  mutable observer : (Time.t -> int -> unit) option;
  (* Parked loops live in [spins.(0 .. nspins - 1)], outside the heap.
     [first] indexes the earliest by [(due, seq)], and [first_due] and
     [first_seq] cache its slot.  With nothing parked [first_due] is
     [max_int]: a field value, not a sentinel record, so the state
     survives the [Marshal] round trip of a checkpoint. *)
  mutable spins : spin array;
  mutable nspins : int;
  mutable first : int;
  mutable first_due : Time.t;
  mutable first_seq : int;
}

(* How often the dispatch-loop observer fires, in processed events.  A
   power of two so the check in the hot loop is a single mask. *)
let observer_interval = 1024

let create () =
  {
    now = Time.zero;
    queue = Event_queue.create2 ~capacity:1024 ();
    processed = 0;
    observer = None;
    spins = [||];
    nspins = 0;
    first = -1;
    first_due = max_int;
    first_seq = max_int;
  }

let now t = t.now
let set_observer t obs = t.observer <- obs

let run_thunk : handler = fun f -> (Obj.obj f : unit -> unit) ()

let check_future t time =
  if time < t.now then
    invalid_arg
      (Format.asprintf "Engine.at: time %a is in the past (now %a)" Time.pp time
         Time.pp t.now)

let at t ~time f =
  check_future t time;
  Event_queue.push2 t.queue ~time run_thunk (Obj.repr f)

let after t ~delay f =
  if delay < 0 then invalid_arg "Engine.after: negative delay";
  Event_queue.push2 t.queue ~time:(Time.add t.now delay) run_thunk (Obj.repr f)

let at_apply (type a) t ~time (k : a -> unit) (x : a) =
  check_future t time;
  Event_queue.push2 t.queue ~time (Obj.magic k : handler) (Obj.repr x)

let after_apply (type a) t ~delay (k : a -> unit) (x : a) =
  if delay < 0 then invalid_arg "Engine.after_apply: negative delay";
  Event_queue.push2 t.queue ~time:(Time.add t.now delay)
    (Obj.magic k : handler)
    (Obj.repr x)

(* --- parked retry loops ---

   A command that fails and is retried every [gap] (a send stalled for
   credits) would cost two heap events per retry: the poll, and the
   failure's completion [settle] later.  A parked loop replays both
   without the heap.  Each step runs at the slot its heap event would
   have had: it reserves its sequence number where the heap version
   pushed the event, at the end of the step before it, and it counts as
   one processed event and one pending event.  The simulation therefore
   sees the same [(time, seq)] order, clock and counts either way. *)

(* Fills vacant slots of [t.spins]; never run and never written. *)
let vacant =
  {
    gap = 0;
    settle = 0;
    poll = (fun () -> false);
    settled = (fun () -> ());
    due = max_int;
    seq = max_int;
    settling = false;
    slot = -1;
  }

let earlier ~due ~seq t = due < t.first_due || (due = t.first_due && seq < t.first_seq)

let find_first t =
  t.first <- -1;
  t.first_due <- max_int;
  t.first_seq <- max_int;
  for i = 0 to t.nspins - 1 do
    let s = Array.unsafe_get t.spins i in
    if earlier ~due:s.due ~seq:s.seq t then begin
      t.first <- i;
      t.first_due <- s.due;
      t.first_seq <- s.seq
    end
  done

let spin t ~gap ~settle ~poll ~settled =
  if gap < 0 || settle < 0 then invalid_arg "Engine.spin: negative delay";
  let n = t.nspins in
  let s =
    {
      gap;
      settle;
      poll;
      settled;
      due = Time.add t.now gap;
      seq = Event_queue.take_seq t.queue;
      settling = false;
      slot = n;
    }
  in
  if n = Array.length t.spins then begin
    let a = Array.make (max 8 (2 * n)) vacant in
    Array.blit t.spins 0 a 0 n;
    t.spins <- a
  end;
  t.spins.(n) <- s;
  t.nspins <- n + 1;
  if earlier ~due:s.due ~seq:s.seq t then begin
    t.first <- n;
    t.first_due <- s.due;
    t.first_seq <- s.seq
  end

(* Remove [s] from the parked set: the last loop moves into its slot. *)
let unpark t s =
  let last = t.nspins - 1 in
  if s.slot <> last then begin
    let m = t.spins.(last) in
    t.spins.(s.slot) <- m;
    m.slot <- s.slot
  end;
  t.spins.(last) <- vacant;
  t.nspins <- last

(* Run the earliest parked loop's due step.  Each next step takes its
   sequence number after the hooks ran, as the heap version's
   [Engine.after] at the end of the same handler would have. *)
let step t =
  let s = t.spins.(t.first) in
  let now = s.due in
  t.now <- now;
  if s.settling then begin
    s.settled ();
    s.settling <- false;
    s.due <- Time.add now s.gap;
    s.seq <- Event_queue.take_seq t.queue
  end
  else if s.poll () then begin
    s.settling <- true;
    s.due <- Time.add now s.settle;
    s.seq <- Event_queue.take_seq t.queue
  end
  else unpark t s;
  find_first t

let pending t = Event_queue.length t.queue + t.nspins

let run ?until ?max_events t =
  (* Single-source bookkeeping: the per-call count is the delta of the
     lifetime [processed] counter, not a second counter incremented in
     parallel.  A handler or observer that enqueues more work during the
     call — including at exactly [until], which this same call then
     processes — cannot make the return value and [events_processed]
     disagree, and a reentrant [run] from a handler is charged to the
     outer call's budget exactly once. *)
  let start = t.processed in
  let budget = match max_events with None -> max_int | Some m -> max 0 m in
  let horizon = match until with None -> max_int | Some u -> u in
  let q = t.queue in
  (* Whichever comes first by [(time, seq)] runs next: the heap's top
     event or the earliest parked loop's step.  With nothing parked,
     [first_due] is [max_int] and the heap always wins. *)
  let rec loop () =
    if t.processed - start < budget then begin
      let heap = not (Event_queue.is_empty q) in
      let time = if heap then Event_queue.next_time q else max_int in
      let from_heap =
        heap
        && (time < t.first_due
           || (time = t.first_due && Event_queue.top_seq q < t.first_seq))
      in
      if
        if from_heap then time <= horizon
        else t.nspins > 0 && t.first_due <= horizon
      then begin
        if from_heap then begin
          let fn = Event_queue.top_fst q and arg = Event_queue.top_snd q in
          Event_queue.drop_min q;
          t.now <- time;
          fn arg
        end
        else step t;
        t.processed <- t.processed + 1;
        (match t.observer with
        | Some obs when t.processed land (observer_interval - 1) = 0 ->
            obs t.now (pending t)
        | Some _ | None -> ());
        loop ()
      end
    end
  in
  loop ();
  (* Advance the clock to the horizon only when every remaining event and
     parked step lies beyond it.  In particular, when [max_events] stops
     the loop with events still pending before [until] — e.g. one an
     observer enqueued at exactly [until] after the budget ran out — the
     clock must stay at the last processed event: jumping to the horizon
     would date those events in the past. *)
  (match until with
  | Some u
    when u > t.now
         && (Event_queue.is_empty q || Event_queue.next_time q > u)
         && t.first_due > u ->
      t.now <- u
  | _ -> ());
  t.processed - start

let events_processed t = t.processed

let reset t =
  t.now <- Time.zero;
  Event_queue.clear t.queue;
  t.spins <- [||];
  t.nspins <- 0;
  find_first t
