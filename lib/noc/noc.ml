module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Trace = M3v_obs.Trace
module Metrics = M3v_obs.Metrics
module Fault = M3v_fault.Fault

(* Data-plane packets (DTU messages, replies, DMA bursts) are best-effort
   under fault injection; Control packets (completion acks, credit
   returns, kernel wires) ride the lossless sideband and are never
   faulted. *)
type kind = Data | Control

type params = {
  flit_bytes : int;
  ps_per_flit : int;
  hop_latency_ps : int;
  header_flits : int;
}

(* 16-byte flits at ~1.6 GB/s per link, 3 router cycles per hop: tile-to-
   tile latency in the low dozens of nanoseconds (paper, section 2.3). *)
let default_params =
  { flit_bytes = 16; ps_per_flit = 10_000; hop_latency_ps = 7_500; header_flits = 1 }

type stats = {
  mutable packets : int;
  mutable payload_bytes : int;
  mutable total_flits : int;
  mutable link_busy_ps : int;
}

type t = {
  engine : Engine.t;
  topo : Topology.t;
  params : params;
  free_at : Time.t array; (* per directed link *)
  mutable stats : stats;
}

let fresh_stats () =
  { packets = 0; payload_bytes = 0; total_flits = 0; link_busy_ps = 0 }

let create ?(params = default_params) engine topo =
  {
    engine;
    topo;
    params;
    free_at = Array.make (Topology.link_count topo) Time.zero;
    stats = fresh_stats ();
  }

let topology t = t.topo
let params t = t.params

let flits_of_bytes t bytes =
  t.params.header_flits
  + ((bytes + t.params.flit_bytes - 1) / t.params.flit_bytes)

(* Loopback (src = dst) stays inside the DTU: charge one hop. *)
let loopback_latency t = t.params.hop_latency_ps

let transfer_time t ~start links flits =
  let serialization = flits * t.params.ps_per_flit in
  let arrival = ref start in
  for i = 0 to Array.length links - 1 do
    let link = links.(i) in
    let begin_at = Time.max !arrival t.free_at.(link) in
    t.free_at.(link) <- Time.add begin_at serialization;
    t.stats.link_busy_ps <- t.stats.link_busy_ps + serialization;
    if Metrics.on () then begin
      let name = Topology.link_name t.topo link in
      Metrics.counter_add ~name:"noc/link_busy_ps" ~cat:name
        (float_of_int serialization);
      Metrics.counter_incr ~name:"noc/link_pkts" ~cat:name ()
    end;
    arrival := Time.add begin_at t.params.hop_latency_ps
  done;
  (* The tail flit lands one serialization window after the head. *)
  Time.add !arrival serialization

let uncontended_latency t ~src ~dst ~bytes =
  let flits = flits_of_bytes t bytes in
  if src = dst then loopback_latency t
  else
    let links = Array.length (Topology.route_links t.topo ~src ~dst) in
    (links * t.params.hop_latency_ps) + (flits * t.params.ps_per_flit)

(* One physical copy of a packet: route it, account link occupancy, and
   schedule [on_delivered] at arrival (+[extra] injected delay). *)
let send_one t ~src ~dst ~bytes ~extra ~on_delivered =
  let now = Engine.now t.engine in
  let flits = flits_of_bytes t bytes in
  let arrival =
    if src = dst then Time.add now (loopback_latency t)
    else
      transfer_time t ~start:now (Topology.route_links t.topo ~src ~dst) flits
  in
  let arrival = Time.add arrival extra in
  let s = t.stats in
  s.packets <- s.packets + 1;
  s.payload_bytes <- s.payload_bytes + bytes;
  s.total_flits <- s.total_flits + flits;
  if Trace.on () then begin
    let dur = Time.sub arrival now in
    (* Queueing delay: how much longer than an uncontended transfer this
       packet took waiting for busy links along its route. *)
    let queue_ps = max 0 (dur - uncontended_latency t ~src ~dst ~bytes) in
    Trace.complete ~cat:"noc" ~name:"pkt" ~tile:src ~ts:now ~dur
      ~args:
        [
          ("src", Trace.I src);
          ("dst", Trace.I dst);
          ("bytes", Trace.I bytes);
          ("queue_ps", Trace.I queue_ps);
        ]
      ();
    Trace.latency_int "noc/packet" dur;
    Trace.latency_int "noc/queueing" queue_ps
  end;
  Engine.at t.engine ~time:arrival on_delivered

let send ?(kind = Control) t ~src ~dst ~bytes ~on_delivered =
  if kind = Control || not (Fault.on ()) then
    send_one t ~src ~dst ~bytes ~extra:0 ~on_delivered
  else
    match Fault.noc_fate ~now:(Engine.now t.engine) ~src ~dst with
    | Fault.Deliver -> send_one t ~src ~dst ~bytes ~extra:0 ~on_delivered
    | Fault.Drop ->
        (* The packet still occupies the route before it is lost. *)
        send_one t ~src ~dst ~bytes ~extra:0 ~on_delivered:(fun () -> ())
    | Fault.Duplicate ->
        (* Both copies arrive; the receiver deduplicates by message uid. *)
        send_one t ~src ~dst ~bytes ~extra:0 ~on_delivered;
        send_one t ~src ~dst ~bytes ~extra:0 ~on_delivered
    | Fault.Delay extra -> send_one t ~src ~dst ~bytes ~extra ~on_delivered

let stats t = { t.stats with packets = t.stats.packets }
let reset_stats t = t.stats <- fresh_stats ()
