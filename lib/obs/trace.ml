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
  mutable events : event list; (* newest first *)
  mutable n_events : int;
  max_events : int;
  mutable dropped : int;
  hists : (string, Stats.Histogram.t) Hashtbl.t;
  tallies : (string, int ref * int ref) Hashtbl.t;
      (* "tile<i>/<cat>/<name>" -> (count, summed duration ps) *)
}

let make ?(max_events = 500_000) () =
  {
    events = [];
    n_events = 0;
    max_events;
    dropped = 0;
    hists = Hashtbl.create 16;
    tallies = Hashtbl.create 64;
  }

(* The sink is ambient so tracepoints need no plumbing through every
   constructor — but it is domain-local, not process-global: experiment
   tasks fanned out over a Domain pool each install their own sink without
   seeing each other's.  [installed] counts the domains that hold a sink,
   and [set_current] is the only writer of [current], so the count moves
   with every install and uninstall.  The disabled check reads the count
   first and touches domain-local storage only when some domain traces.
   It is exact: a domain's own install precedes its own reads, and the
   count never drops below the number of installed domains. *)
let current : sink option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let installed = Atomic.make 0

let set_current v =
  (match (Domain.DLS.get current, v) with
  | None, Some _ -> Atomic.incr installed
  | Some _, None -> Atomic.decr installed
  | None, None | Some _, Some _ -> ());
  Domain.DLS.set current v

(* This domain's sink; every tracepoint below returns immediately
   (allocating nothing) when it is [None]. *)
let active () = if Atomic.get installed = 0 then None else Domain.DLS.get current
let on () = Atomic.get installed > 0 && Option.is_some (Domain.DLS.get current)
let installed_domains () = Atomic.get installed

(* Run-local allocator resets (e.g. the message uid counter).  Trace
   output must be a pure function of the traced run, but flow events
   embed ids drawn from counters that otherwise keep counting across
   runs on the same domain; resetting them at [install] makes two
   identical traced runs byte-identical.  Registration happens at module
   init on the main domain, before any pool exists, so a plain ref is
   safe. *)
let install_hooks : (unit -> unit) list ref = ref []
let at_install f = install_hooks := f :: !install_hooks

let install s =
  List.iter (fun f -> f ()) !install_hooks;
  set_current (Some s)

let uninstall () = set_current None

let with_sink s f =
  install s;
  Fun.protect ~finally:uninstall f

let events s = List.rev s.events
let event_count s = s.n_events
let dropped s = s.dropped
let max_events s = s.max_events

let histogram s name =
  match Hashtbl.find_opt s.hists name with
  | Some h -> h
  | None ->
      let h = Stats.Histogram.create () in
      Hashtbl.add s.hists name h;
      h

let histograms s =
  Hashtbl.fold (fun k h acc -> (k, h) :: acc) s.hists []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let tallies s =
  Hashtbl.fold (fun k (n, d) acc -> (k, !n, !d) :: acc) s.tallies []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)

let tally s ~tile ~cat ~name ~dur =
  let key =
    if tile < 0 then Printf.sprintf "-/%s/%s" cat name
    else Printf.sprintf "tile%d/%s/%s" tile cat name
  in
  let n, d =
    match Hashtbl.find_opt s.tallies key with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.add s.tallies key cell;
        cell
  in
  incr n;
  d := !d + dur

let push s ev =
  tally s ~tile:ev.ev_tile ~cat:ev.ev_cat ~name:ev.ev_name ~dur:ev.ev_dur;
  if s.n_events >= s.max_events then s.dropped <- s.dropped + 1
  else begin
    s.events <- ev :: s.events;
    s.n_events <- s.n_events + 1
  end

let complete ~cat ~name ?(tile = -1) ?(act = -1) ~ts ~dur ?(args = []) () =
  match active () with
  | None -> ()
  | Some s ->
      push s
        {
          ev_cat = cat;
          ev_name = name;
          ev_ph = Complete;
          ev_ts = ts;
          ev_dur = dur;
          ev_tile = tile;
          ev_act = act;
          ev_id = -1;
          ev_args = args;
        }

let instant ~cat ~name ?(tile = -1) ?(act = -1) ~ts ?(args = []) () =
  match active () with
  | None -> ()
  | Some s ->
      push s
        {
          ev_cat = cat;
          ev_name = name;
          ev_ph = Instant;
          ev_ts = ts;
          ev_dur = 0;
          ev_tile = tile;
          ev_act = act;
          ev_id = -1;
          ev_args = args;
        }

let counter ~cat ~name ?(tile = -1) ?(act = -1) ~ts ~value () =
  match active () with
  | None -> ()
  | Some s ->
      push s
        {
          ev_cat = cat;
          ev_name = name;
          ev_ph = Counter;
          ev_ts = ts;
          ev_dur = 0;
          ev_tile = tile;
          ev_act = act;
          ev_id = -1;
          ev_args = [ (name, F value) ];
        }

(* Flow events share one (cat, name, id) triple across their lifetime —
   Chrome matches s/t/f by that triple — so the point kind (issue, inject,
   deliver, fetch) travels in [args] instead of the name. *)
let flow ph ~cat ~name ~id ?(tile = -1) ?(act = -1) ~ts ?(args = []) () =
  match active () with
  | None -> ()
  | Some s ->
      push s
        {
          ev_cat = cat;
          ev_name = name;
          ev_ph = ph;
          ev_ts = ts;
          ev_dur = 0;
          ev_tile = tile;
          ev_act = act;
          ev_id = id;
          ev_args = args;
        }

let flow_start = flow Flow_start
let flow_step = flow Flow_step
let flow_end = flow Flow_end

let latency name v =
  match active () with
  | None -> ()
  | Some s -> Stats.Histogram.add (histogram s name) v

let latency_int name v = latency name (float_of_int v)
