(* Conservative-lookahead sharded discrete-event scheduler.

   Partitions a simulation into [shards] regions, each owning a private
   {!M3v_sim.Engine} (and thus a private SoA event heap), and advances
   them in synchronized windows:

     - every shard advertises its horizon = the timestamp of its earliest
       pending event (an empty shard advertises +inf — the null-message
       rule that keeps idle shards from deadlocking the window);
     - shard [i] may safely execute events up to
       [min over j<>i of horizon(j) + lookahead - 1]: any message another
       shard could still send it is born at or after that shard's horizon
       and arrives at least [lookahead] later;
     - cross-shard sends buffer into the sending shard's private out-list
       during the window and are merged at the barrier.

   The per-shard bound (rather than one global [lbts + lookahead - 1]
   window) matters for the degenerate but important single-region case:
   when only one shard holds events — the drop-in `--shards K` mode wraps
   an unpartitioned simulation this way — every other horizon is +inf, so
   the busy shard runs unthrottled in a single window and the scheduler
   adds no per-window cost to a multi-second simulation.

   Determinism.  Each engine pops (time, seq)-ordered events exactly as a
   sequential engine would, so a shard's execution is a function of its
   event stream alone.  The only schedule-sensitive part is the barrier
   merge, which sorts every flushed batch by

     (delivery time, birth time, source shard, per-source sequence)

   before delivery.  Windows partition simulated time into ordered
   intervals, so two messages in one flush round with equal delivery time
   were either born at the same instant — then both always share a flush
   round, and (src, seq) orders them identically under any window
   schedule — or at different instants, in which case any schedule flushes
   the earlier-born one no later, and birth time orders them.  The
   concatenation of sorted flush rounds is therefore the same total order
   however the windows fall (K = 1, K = 8, or a checkpoint slicing a
   window in half).  Relative heap order of a delivered message against a
   shard-local event with the *same* timestamp is still insertion-defined;
   models that mix the two at equal times must impose content-keyed
   ordering at the consumption point (see Exp_shard's mailbox discipline).

   Worker-domain hygiene mirrors {!Par}: windows run inline (in shard
   order, on the calling domain) whenever a trace sink or fault plan is
   installed — both live in domain-local storage and would not follow
   shards onto workers — and metrics recorded inside pooled windows go
   through {!Par.submit}'s per-task shards, merged in submission (= shard
   index) order.

   The structure is marshal-safe by construction: engines, buffers and
   counters only — no Domains, Atomics or pool handles — so a sharded
   simulation checkpoints exactly like a sequential one (the pool is
   passed to {!run}, never stored, and out-buffers are always drained
   before returning). *)

module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Metrics = M3v_obs.Metrics

type 'm pending = {
  p_dst : int;
  p_time : Time.t;
  p_birth : Time.t;
  p_src : int;
  p_seq : int;
  p_msg : 'm;
}

type 'm t = {
  nshards : int;
  lookahead : Time.t;
  engines : Engine.t array;
  mutable handler : (dst:int -> time:Time.t -> 'm -> unit) option;
  out : 'm pending list ref array; (* per-SOURCE-shard; owner-written only *)
  seqs : int array; (* per-source send sequence, owner-written only *)
  parallel_threshold : int;
  mutable windows : int;
  mutable parallel_windows : int;
  mutable routed : int;
  mutable telem : Telemetry.t option;
      (* Plain data (see Telemetry): rides along in checkpoints. *)
}

type stats = { windows : int; parallel_windows : int; messages_routed : int }

let inf = max_int

let create ?(parallel_threshold = 64) ~lookahead ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards < 1";
  if lookahead < 1 then invalid_arg "Shard.create: lookahead < 1";
  let t =
    {
      nshards = shards;
      lookahead;
      engines = Array.init shards (fun _ -> Engine.create ());
      handler = None;
      out = Array.init shards (fun _ -> ref []);
      seqs = Array.make shards 0;
      parallel_threshold;
      windows = 0;
      parallel_windows = 0;
      routed = 0;
      telem = None;
    }
  in
  (* While a telemetry collection is open (--telemetry), every
     multi-shard group reports into it; single-shard groups are the
     sequential references inside sweeps and would only add noise. *)
  if shards > 1 && Telemetry.collecting () then begin
    let tm = Telemetry.make ~cap:(Telemetry.collector_cap ()) ~shards () in
    Telemetry.register tm;
    t.telem <- Some tm
  end;
  t

let enable_telemetry ?cap t =
  match t.telem with
  | Some tm -> tm
  | None ->
      let tm = Telemetry.make ?cap ~shards:t.nshards () in
      t.telem <- Some tm;
      tm

let telemetry t = t.telem

let shards t = t.nshards
let lookahead t = t.lookahead

let engine t i =
  if i < 0 || i >= t.nshards then invalid_arg "Shard.engine: shard out of range";
  t.engines.(i)

let set_handler t h = t.handler <- Some h

let pending t =
  Array.fold_left (fun acc e -> acc + Engine.pending e) 0 t.engines

let stats (t : _ t) =
  {
    windows = t.windows;
    parallel_windows = t.parallel_windows;
    messages_routed = t.routed;
  }

let get_handler t =
  match t.handler with
  | Some h -> h
  | None -> invalid_arg "Shard: no handler installed (set_handler)"

let send t ~src ~dst ~time msg =
  if src < 0 || src >= t.nshards || dst < 0 || dst >= t.nshards then
    invalid_arg "Shard.send: shard out of range";
  if src = dst then
    (* Same-shard delivery is ordinary shard-local scheduling: hand it to
       the handler synchronously (it runs on the shard's own domain and
       touches only that shard's state), with no lookahead constraint. *)
    get_handler t ~dst ~time msg
  else begin
    let now = Engine.now t.engines.(src) in
    if time < Time.add now t.lookahead then
      invalid_arg
        (Format.asprintf
           "Shard.send: cross-shard delivery at %a violates lookahead %a \
            (now %a)"
           Time.pp time Time.pp t.lookahead Time.pp now);
    let seq = t.seqs.(src) in
    t.seqs.(src) <- seq + 1;
    let buf = t.out.(src) in
    buf :=
      { p_dst = dst; p_time = time; p_birth = now; p_src = src; p_seq = seq;
        p_msg = msg }
      :: !buf
  end

let compare_pending a b =
  let c = compare a.p_time b.p_time in
  if c <> 0 then c
  else
    let c = compare a.p_birth b.p_birth in
    if c <> 0 then c
    else
      let c = compare a.p_src b.p_src in
      if c <> 0 then c else compare a.p_seq b.p_seq

(* Barrier merge: deliver every buffered cross-shard message, globally
   sorted by (time, birth, src, seq) — see the determinism argument in
   the header.  Runs on the coordinating domain between windows. *)
let flush t =
  let batch = ref [] in
  Array.iter
    (fun buf ->
      batch := List.rev_append !buf !batch;
      buf := [])
    t.out;
  match !batch with
  | [] -> ()
  | msgs ->
      let handler = get_handler t in
      List.iter
        (fun p ->
          t.routed <- t.routed + 1;
          handler ~dst:p.p_dst ~time:p.p_time p.p_msg)
        (List.sort compare_pending msgs)

let horizon e = match Engine.next_event_time e with None -> inf | Some tm -> tm

(* Smallest and second-smallest horizons with their shard indices (the
   argmin shard's bound uses the second-smallest: its own events never
   bound itself — and telemetry attributes that bound to the shard that
   produced it).  Also counts the +inf (null-message) advertisements. *)
let min2 t =
  let m1 = ref inf and i1 = ref (-1) and m2 = ref inf and i2 = ref (-1)
  and nulls = ref 0 in
  Array.iteri
    (fun i e ->
      let h = horizon e in
      if h = inf then incr nulls;
      if h < !m1 then begin
        m2 := !m1;
        i2 := !i1;
        m1 := h;
        i1 := i
      end
      else if h < !m2 then begin
        m2 := h;
        i2 := i
      end)
    t.engines;
  (!m1, !i1, !m2, !i2, !nulls)

let add_sat a b = if a >= inf - b then inf else a + b

let may_parallelize () =
  not (M3v_obs.Trace.on () || M3v_fault.Fault.on ())

(* One synchronization window: compute per-shard bounds, run every shard
   that has work inside its bound (on the pool when the window is worth a
   barrier, else inline in shard order), then flush the cross-shard
   messages born in it.

   Telemetry is recorded around the existing control flow, never inside
   its decisions: bounds, the busy set, dispatch, and the merge are
   computed exactly as without it, so enabling telemetry cannot perturb
   experiment output.  Per-shard spans are written into disjoint slots of
   the window record (safe from worker domains; read after the pool
   barrier); everything else happens on the coordinating domain. *)
let run_window ~pool ?until ?max_events t =
  let m1, i1, m2, i2, nulls = min2 t in
  if m1 = inf then `All_idle
  else
    match until with
    | Some u when m1 > u -> `Horizon
    | _ ->
        let bound i =
          let others = if i = i1 then m2 else m1 in
          let b = add_sat others (t.lookahead - 1) in
          match until with Some u -> Time.min u b | None -> b
        in
        (* Which shard's horizon produced shard [i]'s bound: the argmin
           peer (second-argmin for the argmin shard itself), the [until]
           clamp when it strictly tightens, or nothing at all. *)
        let limiter i =
          let others, j = if i = i1 then (m2, i2) else (m1, i1) in
          let b = add_sat others (t.lookahead - 1) in
          match until with
          | Some u when u < b -> Telemetry.limiter_until
          | _ -> if b = inf then Telemetry.limiter_unbounded else j
        in
        let busy = ref [] in
        for i = t.nshards - 1 downto 0 do
          if horizon t.engines.(i) <= bound i then busy := i :: !busy
        done;
        let busy = !busy in
        let wrec =
          match t.telem with
          | None -> None
          | Some tm ->
              let w = Telemetry.begin_window tm ~seq:t.windows ~nulls in
              List.iter
                (fun i ->
                  Telemetry.set_bound w i ~bound:(bound i) ~limiter:(limiter i))
                busy;
              Some w
        in
        t.windows <- t.windows + 1;
        let run_one i =
          let e = t.engines.(i) in
          let b = bound i in
          match wrec with
          | None ->
              if b = inf then Engine.run ?max_events e
              else Engine.run ~until:b ?max_events e
          | Some w ->
              Telemetry.shard_begin w i ~sim_now:(Engine.now e);
              let n =
                if b = inf then Engine.run ?max_events e
                else Engine.run ~until:b ?max_events e
              in
              Telemetry.shard_end w i ~sim_now:(Engine.now e) ~events:n;
              n
        in
        let pooled = ref false in
        let counts =
          let enough_work () =
            List.fold_left
              (fun acc i ->
                let e = t.engines.(i) in
                let b = bound i in
                acc
                + (if b = inf then Engine.pending e
                   else Engine.pending_below e ~time:b))
              0 busy
            >= t.parallel_threshold
          in
          match busy with
          | [] | [ _ ] -> List.map run_one busy
          | _ :: _ :: _
            when Par.Pool.jobs pool > 1 && may_parallelize () && enough_work ()
            ->
              t.parallel_windows <- t.parallel_windows + 1;
              pooled := true;
              Par.all pool (List.map (fun i () -> run_one i) busy)
          | _ :: _ :: _ -> List.map run_one busy
        in
        let routed0 = t.routed in
        flush t;
        let merged = t.routed - routed0 in
        (match (t.telem, wrec) with
        | Some tm, Some w -> Telemetry.commit tm w ~pooled:!pooled ~merged
        | _ -> ());
        let total = List.fold_left ( + ) 0 counts in
        (* Standing par/* instruments — independent of telemetry, and
           restricted to schedule-invariant quantities so metrics output
           stays byte-identical across --jobs (the dispatch decision is
           jobs-dependent and reported only through telemetry). *)
        if Metrics.on () then begin
          Metrics.counter_incr ~name:"par/windows" ~cat:"par" ();
          if merged > 0 then
            Metrics.counter_add ~name:"par/msgs_merged" ~cat:"par"
              (float_of_int merged);
          if nulls > 0 then
            Metrics.counter_add ~name:"par/null_adverts" ~cat:"par"
              (float_of_int nulls);
          Metrics.observe ~name:"par/window_events" ~cat:"par"
            (float_of_int total)
        end;
        `Ran total

(* Apply Engine.run's clock rule uniformly at the horizon: every shard
   whose remaining events all lie beyond [u] jumps its clock to [u],
   exactly as a sequential [Engine.run ~until:u] would. *)
let finish_clocks ?until t =
  match until with
  | None -> 0
  | Some u ->
      Array.fold_left (fun acc e -> acc + Engine.run ~until:u e) 0 t.engines

let run ?(pool = Par.Pool.sequential) ?until t =
  (* Out-buffers are drained before every return, but a handler installed
     after a checkpoint reload may find leftovers: deliver them first. *)
  flush t;
  let total = ref 0 in
  let rec go () =
    match run_window ~pool ?until t with
    | `Ran n ->
        total := !total + n;
        go ()
    | `All_idle | `Horizon -> ()
  in
  go ();
  !total + finish_clocks ?until t

let step ?(pool = Par.Pool.sequential) ?until ?max_events t =
  (* Same pre-drain as [run]: a message sent before the first window (or
     left over by a checkpoint reload) must land before horizons are
     read, or an otherwise-empty group would report `Idle with work
     buffered. *)
  flush t;
  match run_window ~pool ?until ?max_events t with
  | `Ran n -> `Events n
  | `All_idle | `Horizon ->
      ignore (finish_clocks ?until t);
      `Idle
