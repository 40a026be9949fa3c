module Stats = M3v_sim.Stats

type value = I of int | F of float | S of string

type phase = Complete | Instant | Counter | Flow_start | Flow_step | Flow_end

type event = {
  ev_cat : string;
  ev_name : string;
  ev_ph : phase;
  ev_ts : int; (* simulated time, ps *)
  ev_dur : int; (* Complete events only, ps *)
  ev_tile : int; (* -1: not tile-attributed *)
  ev_act : int; (* -1: not activity-attributed *)
  ev_id : int; (* flow id (message uid) for Flow_* events; -1 otherwise *)
  ev_args : (string * value) list;
}

type sink = {
  mutable events : event list; (* own, since the last seal; newest first *)
  mutable parts : (int * event list) list;
      (* sealed runs of events, newest first: (task, events oldest first) *)
  mutable tasks : int; (* its own task and every task joined into it *)
  mutable n_events : int; (* events held, joined ones included *)
  mutable limit : int; (* [max_events] less the caps of unjoined children *)
  max_events : int;
  mutable dropped : int;
  hists : (string, Stats.Histogram.t) Hashtbl.t;
  tallies : (int * string * string, int ref * int ref) Hashtbl.t;
      (* (tile, cat, name) -> (count, summed duration ps) *)
}

let make ?(max_events = 500_000) () =
  {
    events = [];
    parts = [];
    tasks = 1;
    n_events = 0;
    limit = max_events;
    max_events;
    dropped = 0;
    hists = Hashtbl.create 16;
    tallies = Hashtbl.create 64;
  }

(* A child keeps at most [share r] events of the [r] its parent has not
   yet recorded or lent, and its parent stops short of them until the
   child joins, so a parent and its children never hold more than the
   parent's cap between them.  A task takes half, rounded up: tasks
   forked one after another before any joins each get a part. *)
let lend parent share =
  let cap = share (max 0 (parent.limit - parent.n_events)) in
  parent.limit <- parent.limit - cap;
  make ~max_events:cap ()

(* A key's tally cell and a name's histogram, added on first use. *)
let[@inline] tally s key =
  match Hashtbl.find_opt s.tallies key with
  | Some cell -> cell
  | None ->
      let cell = (ref 0, ref 0) in
      Hashtbl.add s.tallies key cell;
      cell

let histogram s name =
  match Hashtbl.find_opt s.hists name with
  | Some h -> h
  | None ->
      let h = Stats.Histogram.create () in
      Hashtbl.add s.hists name h;
      h

let seal s =
  if s.events <> [] then begin
    s.parts <- (0, List.rev s.events) :: s.parts;
    s.events <- []
  end

(* The child's tasks follow the parent's, so the tasks of a sink are
   numbered in join order. *)
let join parent child =
  seal parent;
  seal child;
  let base = parent.tasks in
  List.iter
    (fun (task, evs) -> parent.parts <- (base + task, evs) :: parent.parts)
    (List.rev child.parts);
  parent.tasks <- base + child.tasks;
  parent.n_events <- parent.n_events + child.n_events;
  parent.limit <- parent.limit + child.max_events;
  parent.dropped <- parent.dropped + child.dropped;
  Hashtbl.iter
    (fun name h -> Stats.Histogram.merge ~into:(histogram parent name) h)
    child.hists;
  Hashtbl.iter
    (fun key (n, d) ->
      let pn, pd = tally parent key in
      pn := !pn + !n;
      pd := !pd + !d)
    child.tallies

(* Run-local allocators (e.g. the message uid counter).  Trace output
   must be a pure function of the traced run, but flow events embed ids
   drawn from counters that otherwise keep counting across runs on the
   same domain.  Each hook resets its counter and returns what puts it
   back.  They run when a domain's first sink is installed and at the
   start of every task that records into a sink, so a task's ids start
   afresh wherever it runs; a sink installed inside another keeps
   counting, so the outer trace never sees an id twice.  Registration
   happens at module init on the main domain, before any pool exists, so
   a plain ref is safe. *)
let install_hooks : (unit -> unit -> unit) list ref = ref []
let at_install f = install_hooks := f :: !install_hooks

let fresh_allocators () =
  let restores = List.map (fun reset -> reset ()) !install_hooks in
  fun () -> List.iter (fun restore -> restore ()) restores

(* The sink is ambient so tracepoints need no plumbing through every
   constructor; every tracepoint below returns immediately (allocating
   nothing) while this domain has none. *)
let current : sink Ambient.t =
  Ambient.make
    ~fork:(fun parent -> lend parent (fun r -> (r + 1) / 2))
    ~join ~start:fresh_allocators

let[@inline] on () = Ambient.on current
let installed_domains () = Ambient.domains current

let with_sink s f =
  if on () then Ambient.with_ current s f
  else
    let restore = fresh_allocators () in
    Fun.protect ~finally:restore (fun () -> Ambient.with_ current s f)

let scoped f =
  match Ambient.get current with
  | None ->
      let s = make () in
      (with_sink s f, s)
  | Some parent ->
      let s = lend parent Fun.id in
      let r =
        Fun.protect ~finally:(fun () -> join parent s) (fun () -> with_sink s f)
      in
      (r, s)

let parts s =
  let own = if s.events = [] then [] else [ (0, List.rev s.events) ] in
  List.rev_append s.parts own

let events s = List.concat_map snd (parts s)
let event_count s = s.n_events
let dropped s = s.dropped
let max_events s = s.max_events

let histograms s =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) s.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let tallies s =
  Hashtbl.fold
    (fun (tile, cat, name) (n, d) acc ->
      let key =
        if tile < 0 then Printf.sprintf "-/%s/%s" cat name
        else Printf.sprintf "tile%d/%s/%s" tile cat name
      in
      (key, !n, !d) :: acc)
    s.tallies []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

(* The one place an event is recorded.  Each tracepoint reads the sink
   first, so with none installed it builds nothing.  Events past the cap
   (less what is lent to children) still count in the tallies. *)
let emit s ph ~cat ~name ~tile ~act ~ts ~dur ~id args =
  let n, d = tally s (tile, cat, name) in
  incr n;
  d := !d + dur;
  if s.n_events >= s.limit then s.dropped <- s.dropped + 1
  else begin
    s.events <-
      {
        ev_cat = cat;
        ev_name = name;
        ev_ph = ph;
        ev_ts = ts;
        ev_dur = dur;
        ev_tile = tile;
        ev_act = act;
        ev_id = id;
        ev_args = args;
      }
      :: s.events;
    s.n_events <- s.n_events + 1
  end

let complete ~cat ~name ?(tile = -1) ?(act = -1) ~ts ~dur ?(args = []) () =
  match Ambient.get current with
  | None -> ()
  | Some s -> emit s Complete ~cat ~name ~tile ~act ~ts ~dur ~id:(-1) args

let instant ~cat ~name ?(tile = -1) ?(act = -1) ~ts ?(args = []) () =
  match Ambient.get current with
  | None -> ()
  | Some s -> emit s Instant ~cat ~name ~tile ~act ~ts ~dur:0 ~id:(-1) args

let counter ~cat ~name ?(tile = -1) ?(act = -1) ~ts ~value () =
  match Ambient.get current with
  | None -> ()
  | Some s ->
      emit s Counter ~cat ~name ~tile ~act ~ts ~dur:0 ~id:(-1)
        [ (name, F value) ]

(* Flow events share one (cat, name, id) triple across their lifetime —
   Chrome matches s/t/f by that triple — so the point kind (issue, inject,
   deliver, fetch) travels in [args] instead of the name. *)
let flow_start ~cat ~name ~id ?(tile = -1) ?(act = -1) ~ts ?(args = []) () =
  match Ambient.get current with
  | None -> ()
  | Some s -> emit s Flow_start ~cat ~name ~tile ~act ~ts ~dur:0 ~id args

let flow_step ~cat ~name ~id ?(tile = -1) ?(act = -1) ~ts ?(args = []) () =
  match Ambient.get current with
  | None -> ()
  | Some s -> emit s Flow_step ~cat ~name ~tile ~act ~ts ~dur:0 ~id args

let flow_end ~cat ~name ~id ?(tile = -1) ?(act = -1) ~ts ?(args = []) () =
  match Ambient.get current with
  | None -> ()
  | Some s -> emit s Flow_end ~cat ~name ~tile ~act ~ts ~dur:0 ~id args

let latency_int name v =
  match Ambient.get current with
  | None -> ()
  | Some s -> Stats.Histogram.add (histogram s name) (float_of_int v)

(* The two activity ids the vDTU reserves ([Dtu_types.invalid_act] and
   [tilemux_act]; lib/dtu builds on this library, so it cannot name
   them). *)
let reserved_act act =
  if act = 0xFFFF then Some "(no act)"
  else if act = 0xFFFE then Some "tilemux"
  else None
