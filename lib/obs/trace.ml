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
  tallies : (int * string * string, int ref * int ref) Hashtbl.t;
      (* (tile, cat, name) -> (count, summed duration ps) *)
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
   constructor; every tracepoint below returns immediately (allocating
   nothing) while this domain has none. *)
let current : sink Ambient.t = Ambient.make ()
let[@inline] on () = Ambient.on current
let installed_domains () = Ambient.domains current

(* Run-local allocator resets (e.g. the message uid counter).  Trace
   output must be a pure function of the traced run, but flow events
   embed ids drawn from counters that otherwise keep counting across
   runs on the same domain; resetting them when a domain's first sink is
   installed makes two identical traced runs byte-identical.  A sink
   installed inside another keeps counting, so the outer trace never
   sees an id twice.  Registration happens at module init on the main
   domain, before any pool exists, so a plain ref is safe. *)
let install_hooks : (unit -> unit) list ref = ref []
let at_install f = install_hooks := f :: !install_hooks

let with_sink s f =
  if not (on ()) then List.iter (fun f -> f ()) !install_hooks;
  Ambient.with_ current s f

let events s = List.rev s.events
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
   still count in the tallies. *)
let emit s ph ~cat ~name ~tile ~act ~ts ~dur ~id args =
  let key = (tile, cat, name) in
  let n, d =
    match Hashtbl.find_opt s.tallies key with
    | Some cell -> cell
    | None ->
        let cell = (ref 0, ref 0) in
        Hashtbl.add s.tallies key cell;
        cell
  in
  incr n;
  d := !d + dur;
  if s.n_events >= s.max_events then s.dropped <- s.dropped + 1
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
  | Some s ->
      let h =
        match Hashtbl.find_opt s.hists name with
        | Some h -> h
        | None ->
            let h = Stats.Histogram.create () in
            Hashtbl.add s.hists name h;
            h
      in
      Stats.Histogram.add h (float_of_int v)

(* The two activity ids the vDTU reserves ([Dtu_types.invalid_act] and
   [tilemux_act]; lib/dtu builds on this library, so it cannot name
   them). *)
let reserved_act act =
  if act = 0xFFFF then Some "(no act)"
  else if act = 0xFFFE then Some "tilemux"
  else None
