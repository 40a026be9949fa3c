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

type t = {
  mutable now : Time.t;
  queue : (handler, Obj.t) Event_queue.t2;
  mutable processed : int;
  mutable observer : (Time.t -> int -> unit) option;
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

(* A retry loop (see [spin]).  It alternates two steps: a poll, then, if
   the poll found the command would fail again, that failure's
   completion [settle] later, then the next poll [gap] after that.  Each
   step is one queued event: [step] with this record as its argument,
   pushed at the end of the step before, where a scheduled retry would
   have been pushed. *)
type spin = {
  eng : t;
  gap : Time.t;
  settle : Time.t;
  poll : unit -> bool;
  settled : unit -> unit;
  mutable settling : bool;  (* the next step is a completion *)
}

let rec step s =
  if s.settling then begin
    s.settled ();
    s.settling <- false;
    after_apply s.eng ~delay:s.gap step s
  end
  else if s.poll () then begin
    s.settling <- true;
    after_apply s.eng ~delay:s.settle step s
  end

let spin t ~gap ~settle ~poll ~settled =
  if gap < 0 || settle < 0 then invalid_arg "Engine.spin: negative delay";
  after_apply t ~delay:gap step
    { eng = t; gap; settle; poll; settled; settling = false }

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
  let rec loop () =
    if t.processed - start < budget && not (Event_queue.is_empty q) then begin
      let time = Event_queue.next_time q in
      if time <= horizon then begin
        let fn = Event_queue.top_fst q and arg = Event_queue.top_snd q in
        Event_queue.drop_min q;
        t.now <- time;
        fn arg;
        t.processed <- t.processed + 1;
        (match t.observer with
        | Some obs when t.processed land (observer_interval - 1) = 0 ->
            obs t.now (Event_queue.length q)
        | Some _ | None -> ());
        loop ()
      end
    end
  in
  loop ();
  (* Advance the clock to the horizon only when every remaining event lies
     beyond it.  In particular, when [max_events] stops the loop with
     events still pending before [until] — e.g. one an observer enqueued
     at exactly [until] after the budget ran out — the clock must stay at
     the last processed event: jumping to the horizon would date those
     events in the past. *)
  (match until with
  | Some u
    when u > t.now && (Event_queue.is_empty q || Event_queue.next_time q > u)
    ->
      t.now <- u
  | _ -> ());
  t.processed - start

let events_processed t = t.processed
let pending t = Event_queue.length t.queue

let reset t =
  t.now <- Time.zero;
  Event_queue.clear t.queue
