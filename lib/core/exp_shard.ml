(* Partitioned-parallel scaling experiment for the sharded scheduler.

   A System is one causal region (shared kernel, controller, NoC link
   state), so it runs on a plain engine.  This experiment is a
   partitionable workload at 64-1024 tiles whose sharded run spreads
   real event work over the Domain pool — and still produces
   bit-identical results, asserted on every invocation by running each
   point twice (shards = 1 sequentially, shards = K on the pool) and
   comparing makespan, checksum and event count.

   Topology: tiles are grouped into clusters of 16 (an island of a
   hierarchical NoC).  Intra-cluster messages take one local hop;
   inter-cluster messages cross the island boundary — three local hops,
   a backbone router and two serialized flits:

     intra = 25_000 ps        inter = 3*7_500 + 30_000 + 2*10_000 = 72_500 ps

   Shards are contiguous blocks of whole clusters, so a cross-shard
   message is necessarily inter-cluster and the scheduler's lookahead is
   the full 72.5 ns inter-cluster minimum — wide enough windows to batch
   hundreds of events per shard between barriers.

   Workload: closed-loop token chains.  Each chain is a single token
   hopping [hops] times; each hop is served by the destination tile's
   FIFO server with a deterministic pseudo-random service time, plus
   [weight] rounds of hash mixing folded into the chain's checksum (the
   knob that gives an event enough CPU weight for parallelism to pay).

   Determinism across partitionings is the delicate part.  The scheduler
   guarantees cross-shard *messages* are delivered in a
   partition-invariant order, but the heap order of a delivered message
   against a same-timestamp shard-local event is insertion-defined — so
   the model must not depend on it.  Discipline used here (the pattern
   the DESIGN doc describes):

     - arrivals go into a per-(tile, time) mailbox bucket; the first
       arrival arms one trigger event at that time, and the trigger
       drains the bucket sorted by content key (chain id — unique, since
       a chain has one live token), so arrival order never matters;
     - tiles serve from a FIFO queue; a trigger and a service completion
       at the same instant commute (the completion pops the queue head
       either way, and an idle server starts the new arrival at the same
       time whether the kick or the completion ran first);
     - service times and routes are pure hashes of (seed, chain, hop) —
       no RNG consumed in arrival order, no state shared between tiles.

   Under that discipline every equal-time event pair either touches
   disjoint tile state or commutes, so seq/sharded/parallel runs agree
   exactly — which the experiment asserts rather than assumes. *)

module Time = M3v_sim.Time
module Engine = M3v_sim.Engine
module Shard = M3v_par.Shard
module Par = M3v_par.Par

let cluster_size = 16
let intra_latency = 25_000
let inter_latency = 72_500

(* splitmix-style avalanche on OCaml's 63-bit int, masked positive. *)
let mix x =
  let x = x lxor (x lsr 33) in
  let x = x * 0x2545F4914F6CDD1D in
  let x = x lxor (x lsr 29) in
  let x = (x * 0x27220A95) + 0x165667B1 in
  (x lxor (x lsr 31)) land max_int

let mix2 a b = mix (a lxor mix b)
let mix3 a b c = mix2 a (mix2 b c)

type token = { chain : int; hop : int; acc : int }

(* Cross-shard message: the token plus its destination tile (the shard id
   alone does not identify the tile). *)
type msg = { m_tile : int; m_tok : token }

type tile_state = { queue : token Queue.t; mutable busy : bool }

type run_result = {
  r_makespan : Time.t;
  r_checksum : int;
  r_events : int;
  r_stats : Shard.stats;
}

(* Build the simulation and return (group, finalize) where [finalize]
   computes the checksum after the run. *)
let build ~tiles ~shards ~chains_per_tile ~hops ~weight ~seed =
  let n_clusters = max 1 (tiles / cluster_size) in
  let k = max 1 (min shards n_clusters) in
  let cluster_of tile = min (tile / cluster_size) (n_clusters - 1) in
  let shard_of tile = cluster_of tile * k / n_clusters in
  let group = Shard.create ~lookahead:inter_latency ~shards:k () in
  (* Queue-depth trace samples and metric time series per shard engine —
     but only under a trace sink, which forces inline windows, so every
     sample lands in the coordinating domain's sink/registry.  Under
     --metrics alone, windows may run on worker domains whose registry
     shards restart counters at zero: sampled series would carry
     shard-local partial sums and break --jobs byte-identity.  The par/*
     counters themselves merge additively and stay jobs-invariant. *)
  if M3v_obs.Trace.on () then
    for i = 0 to Shard.shards group - 1 do
      M3v_obs.Hooks.attach_engine (Shard.engine group i)
    done;
  let nchains = tiles * chains_per_tile in
  let state =
    Array.init tiles (fun _ -> { queue = Queue.create (); busy = false })
  in
  let mailbox : (Time.t, token list ref) Hashtbl.t array =
    Array.init tiles (fun _ -> Hashtbl.create 16)
  in
  let finish = Array.make nchains Time.zero in
  let final_acc = Array.make nchains 0 in
  let service_time tok ~tile =
    1_000 + (mix3 (seed + 1) (mix2 tok.chain tok.hop) tile mod 15_000)
  in
  let next_tile tok ~tile =
    let h = mix3 (seed + 2) tok.chain tok.hop in
    if h mod 100 < 70 then
      (* stay on the island *)
      (cluster_of tile * cluster_size) + (mix h mod cluster_size)
    else mix h mod tiles
  in
  (* [weight] extra rounds of mixing per served hop: deterministic CPU
     work that makes an event heavy enough to amortize window barriers. *)
  let churn x =
    let acc = ref x in
    for _ = 1 to weight do
      acc := mix !acc
    done;
    !acc
  in
  let rec serve_next ~tile ~time =
    let st = state.(tile) in
    if Queue.is_empty st.queue then st.busy <- false
    else begin
      st.busy <- true;
      let tok = Queue.pop st.queue in
      let done_at = Time.add time (service_time tok ~tile) in
      Engine.at (Shard.engine group (shard_of tile)) ~time:done_at (fun () ->
          complete ~tile ~time:done_at tok)
    end
  and complete ~tile ~time tok =
    let acc = churn (mix3 tok.acc tile time) in
    if tok.hop + 1 >= hops then begin
      finish.(tok.chain) <- time;
      final_acc.(tok.chain) <- acc
    end
    else begin
      let tok = { tok with hop = tok.hop + 1; acc } in
      let dst = next_tile tok ~tile in
      let lat =
        if cluster_of dst = cluster_of tile then intra_latency
        else inter_latency
      in
      let time = Time.add time lat in
      Shard.send group ~src:(shard_of tile) ~dst:(shard_of dst) ~time
        { m_tile = dst; m_tok = tok }
    end;
    serve_next ~tile ~time
  and deliver ~tile ~time tok =
    let buckets = mailbox.(tile) in
    match Hashtbl.find_opt buckets time with
    | Some l -> l := tok :: !l
    | None ->
        let l = ref [ tok ] in
        Hashtbl.add buckets time l;
        Engine.at (Shard.engine group (shard_of tile)) ~time (fun () ->
            Hashtbl.remove buckets time;
            let toks =
              List.sort (fun a b -> compare a.chain b.chain) !l
            in
            List.iter
              (fun tok ->
                Queue.push tok state.(tile).queue;
                if not state.(tile).busy then serve_next ~tile ~time)
              toks)
  in
  Shard.set_handler group (fun ~dst:_ ~time m ->
      deliver ~tile:m.m_tile ~time m.m_tok);
  (* Seed: chain [c] starts at its home tile at a staggered instant. *)
  for c = 0 to nchains - 1 do
    let tile = c mod tiles in
    let start = 1 + (mix2 seed c mod 50_000) in
    deliver ~tile ~time:start { chain = c; hop = 0; acc = mix2 seed c }
  done;
  let finalize events =
    let checksum =
      let h = ref 0 in
      for c = 0 to nchains - 1 do
        h := mix3 !h finish.(c) final_acc.(c)
      done;
      !h land 0xFFFFFFFF
    in
    let makespan = Array.fold_left Time.max Time.zero finish in
    {
      r_makespan = makespan;
      r_checksum = checksum;
      r_events = events;
      r_stats = Shard.stats group;
    }
  in
  (group, finalize)

type point = {
  p_tiles : int;
  p_clusters : int;
  p_shards : int;
  p_chains : int;
  p_hops : int;
  p_events : int;
  p_makespan : Time.t;
  p_checksum : int;
  p_match : bool;
  p_wall_seq : float;
  p_wall_par : float;
}

type result = { points : point list; jobs : int }

(* Monotonic wall timing (Mono): a clock step mid-measurement can no
   longer produce negative or inverted speedups. *)
let timed = M3v_par.Mono.timed

(* The one place speedup division is guarded: trivial points can finish
   inside the clock's resolution, and 0/0 is "n/a", not "0.00x". *)
let speedup_str ~wall_seq ~wall_par =
  if wall_par > 1e-9 then Printf.sprintf "%.2fx" (wall_seq /. wall_par)
  else "n/a"

let run_point ?(progress = true) ?(telemetry = false) ~pool ~tiles ~shards
    ~chains_per_tile ~hops ~weight ~seed () =
  let build_one ~shards =
    build ~tiles ~shards ~chains_per_tile ~hops ~weight ~seed
  in
  let seq_group, seq_fin = build_one ~shards:1 in
  let seq, wall_seq = timed (fun () -> Shard.run seq_group) in
  let seq = seq_fin seq in
  let par_group, par_fin = build_one ~shards in
  if telemetry then ignore (Shard.enable_telemetry par_group);
  let par, wall_par = timed (fun () -> Shard.run ~pool par_group) in
  let par = par_fin par in
  let matches =
    seq.r_makespan = par.r_makespan
    && seq.r_checksum = par.r_checksum
    && seq.r_events = par.r_events
  in
  let st = par.r_stats in
  if progress then
    Par.progress
      (Printf.sprintf
         "shard-sweep: tiles=%d shards=%d wall seq %.3fs par %.3fs (%s) | \
          windows=%d parallel=%d routed=%d"
         tiles (Shard.shards par_group) wall_seq wall_par
         (speedup_str ~wall_seq ~wall_par)
         st.Shard.windows st.Shard.parallel_windows st.Shard.messages_routed);
  {
    p_tiles = tiles;
    p_clusters = max 1 (tiles / cluster_size);
    p_shards = Shard.shards par_group;
    p_chains = tiles * chains_per_tile;
    p_hops = hops;
    p_events = seq.r_events;
    p_makespan = seq.r_makespan;
    p_checksum = seq.r_checksum;
    p_match = matches;
    p_wall_seq = wall_seq;
    p_wall_par = wall_par;
  }

let run ?(pool = Par.Pool.sequential) ?(shards = 4) ?(chains_per_tile = 4)
    ?(hops = 32) ?(weight = 512) ?(seed = 1) ?(tile_counts = [ 64; 256 ]) () =
  let points =
    List.map
      (fun tiles ->
        run_point ~pool ~tiles ~shards ~chains_per_tile ~hops ~weight ~seed ())
      tile_counts
  in
  { points; jobs = Par.Pool.jobs pool }

let print r =
  Format.printf
    "@.Shard sweep: conservative-lookahead partitioned simulation@.";
  Format.printf
    "  (every point runs twice — sequential and sharded — and compares \
     results)@.";
  Format.printf "  %-7s %-9s %-7s %-7s %-6s %-9s %-13s %-10s %s@." "tiles"
    "clusters" "shards" "chains" "hops" "events" "makespan(us)" "checksum"
    "identical";
  List.iter
    (fun p ->
      Format.printf "  %-7d %-9d %-7d %-7d %-6d %-9d %-13.2f %08x   %s@."
        p.p_tiles p.p_clusters p.p_shards p.p_chains p.p_hops p.p_events
        (Time.to_us p.p_makespan) p.p_checksum
        (if p.p_match then "OK" else "MISMATCH"))
    r.points;
  if List.for_all (fun p -> p.p_match) r.points then
    Format.printf "  sharded == sequential: OK@."
  else Format.printf "  sharded == sequential: MISMATCH@."

(* {1 shard-report} — one sharded run with telemetry enabled, analyzed.

   Unlike the sweep there is no sequential reference: the speedup bound
   comes from the telemetry critical path (total work / sum of
   per-window max shard work), which is what the report is for —
   explaining where parallel headroom goes before burning a second run
   to measure it.  This analyzer output is the subcommand's deliverable,
   so it goes to stdout; wall-clock fields make it non-reproducible
   byte-for-byte by design (simulated results stay deterministic). *)

type report = {
  rep_tiles : int;
  rep_shards : int;
  rep_jobs : int;
  rep_result : run_result;
  rep_wall : float;
  rep_telemetry : M3v_par.Telemetry.t;
}

let report ?(pool = Par.Pool.sequential) ?(tiles = 256) ?(shards = 4)
    ?(chains_per_tile = 4) ?(hops = 32) ?(weight = 512) ?(seed = 1) ?cap () =
  let group, finalize =
    build ~tiles ~shards ~chains_per_tile ~hops ~weight ~seed
  in
  let tm = Shard.enable_telemetry ?cap group in
  let events, wall = timed (fun () -> Shard.run ~pool group) in
  {
    rep_tiles = tiles;
    rep_shards = Shard.shards group;
    rep_jobs = Par.Pool.jobs pool;
    rep_result = finalize events;
    rep_wall = wall;
    rep_telemetry = tm;
  }

let print_report r =
  let res = r.rep_result in
  Format.printf "@.Shard report: per-window telemetry for one sharded run@.";
  Format.printf
    "  tiles=%d shards=%d jobs=%d | events=%d makespan=%.2fus checksum=%08x \
     wall=%.3fs@.@."
    r.rep_tiles r.rep_shards r.rep_jobs res.r_events
    (Time.to_us res.r_makespan)
    res.r_checksum r.rep_wall;
  M3v_par.Telemetry.pp Format.std_formatter r.rep_telemetry
