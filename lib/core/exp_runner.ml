module Par = M3v_par.Par

let positive v = if v <= 0 then None else Some v

let parse_faults s =
  match M3v_fault.Fault.parse s with
  | Ok spec -> spec
  | Error msg ->
      Format.eprintf "m3vsim: bad --faults spec: %s@." msg;
      exit 2

(* Every output file is opened before the (possibly long) run, so a bad
   path fails fast instead of after the run. *)
let open_out_or_exit what path =
  try open_out path
  with Sys_error msg ->
    Format.eprintf "m3vsim: cannot write %s file: %s@." what msg;
    exit 1

(* When [faults] names a spec, run the experiment under a deterministic
   fault plan (same spec + seed => same fault schedule). *)
let with_faults ?faults ~fault_seed f =
  match faults with
  | None -> f ()
  | Some s ->
      let plan = M3v_fault.Fault.create ~seed:fault_seed (parse_faults s) in
      M3v_fault.Fault.with_plan plan (fun () ->
          f ();
          Format.printf "@.fault injection: seed=%d %a@." fault_seed
            M3v_fault.Fault.pp_stats
            (M3v_fault.Fault.stats plan))

(* When [trace] names a file, run the experiment with a trace sink
   installed, then dump Chrome trace-event JSON there and print the
   latency/summary tables. *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
      let oc = open_out_or_exit "trace" path in
      let sink = M3v_obs.Trace.make () in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          M3v_obs.Trace.with_sink sink f;
          M3v_obs.Chrome.write oc sink);
      Format.printf "@.trace: %d events -> %s@." (M3v_obs.Trace.event_count sink)
        path;
      M3v_obs.Report.print Format.std_formatter sink

(* When [metrics] names a file, run the experiment with a metrics registry
   installed, then export JSON there and print the metric tables.  Unlike
   tracing, metrics do NOT force sequential execution: the pool shards the
   registry per task and merges in submission order, so parallel metrics
   output is byte-identical to a sequential run's. *)
let with_metrics metrics f =
  match metrics with
  | None -> f ()
  | Some path ->
      let oc = open_out_or_exit "metrics" path in
      let reg = M3v_obs.Metrics.create () in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          M3v_obs.Metrics.with_registry reg f;
          Buffer.output_buffer oc (M3v_obs.Metrics.to_buffer reg));
      Format.printf "@.metrics -> %s@." path;
      M3v_obs.Metrics.print Format.std_formatter reg

type opts = {
  trace : string option;
  metrics : string option;
  faults : string option;
  fault_seed : int;
  jobs : int option;
}

let default =
  { trace = None; metrics = None; faults = None; fault_seed = 7; jobs = None }

(* The one place that sizes a System experiment's pool.  A trace sink and
   an ambient fault plan are domain-local, so tasks on worker domains
   would silently escape them — and a shared fault RNG would destroy
   schedule determinism anyway: either one makes the pool 1 wide.  Inside
   the pool come the fault plan, the trace sink and the metrics
   registry. *)
let run o f =
  let sequential = Option.is_some o.trace || Option.is_some o.faults in
  let jobs = if sequential then Some 1 else o.jobs in
  Par.Pool.with_pool ?jobs (fun pool ->
      with_faults ?faults:o.faults ~fault_seed:o.fault_seed (fun () ->
          with_trace o.trace (fun () ->
              with_metrics o.metrics (fun () -> f pool))))

type size = Rounds | Runs

type experiment = {
  name : string;
  doc : string;
  size : size option;
  run : Par.Pool.t -> int option -> unit -> unit;
}

(* The evaluation, in the paper's order: each entry computes its result
   on the pool and hands back the printer. *)
let experiments =
  let entry ?size name doc run = { name; doc; size; run } in
  let later print r () = print r in
  [
    entry "table1" "Table 1: FPGA area consumption" (fun _ _ ->
        later Exp_table1.print (Exp_table1.run ()));
    entry "complexity" "Section 6.1: software complexity (SLOC)" (fun _ _ ->
        later Exp_table1.print_complexity (Exp_table1.run_complexity ()));
    entry ~size:Rounds "fig6" "Figure 6: local/remote RPC vs Linux primitives"
      (fun pool rounds -> later Exp_fig6.print (Exp_fig6.run ~pool ?rounds ()));
    entry ~size:Runs "fig7" "Figure 7: file read/write throughput"
      (fun pool runs -> later Exp_fig7.print (Exp_fig7.run ~pool ?runs ()));
    entry ~size:Runs "fig8" "Figure 8: UDP latency" (fun pool runs ->
        later Exp_fig8.print (Exp_fig8.run ~pool ?runs ()));
    entry ~size:Runs "fig9"
      "Figure 9: scalability of tile multiplexing (M3x vs M3v)"
      (fun pool runs -> later Exp_fig9.print (Exp_fig9.run ~pool ?runs ()));
    entry ~size:Runs "voice" "Section 6.5.1: voice assistant sharing overhead"
      (fun pool runs -> later Exp_voice.print (Exp_voice.run ~pool ?runs ()));
    entry ~size:Runs "fig10" "Figure 10: cloud service (YCSB) vs Linux"
      (fun pool runs -> later Exp_fig10.print (Exp_fig10.run ~pool ?runs ()));
    entry "ablations"
      "Ablation studies: extent cap, TLB size, topology, M3x state"
      (fun pool _ ->
        later (List.iter Ablations.print) (Ablations.run_all ~pool ()));
    entry "fanin"
      "Fan-in ablation: N senders -> 1 server throughput, shared MPMC \
       receive endpoint (batched acks, coalesced doorbells) vs per-sender \
       endpoints"
      (fun pool _ -> later Exp_fanin.print (Exp_fanin.run ~pool ()));
    entry "migrate"
      "Live-migration ablation: an echo server is migrated between tiles \
       under a paced RPC stream; reports downtime vs message rate and \
       verifies exactly-once delivery, clean and with injected migration \
       aborts"
      (fun pool _ ->
        later (List.iter Exp_migrate.print) (Exp_migrate.run ~pool ()));
  ]

let find name = List.find_opt (fun e -> e.name = name) experiments

(* The chaos soak manages its own plan: [Exp_chaos.run] installs the spec
   and seed itself — inside each task, so a sweep can run seeds on worker
   domains.  Only tracing forces it sequential, so [faults] is the soak's
   spec, never the ambient plan of [run]. *)
let chaos_outcome = function
  | Exp_chaos.Completed r -> Exp_chaos.print r
  | Exp_chaos.Suspended { checkpoints; file } ->
      (* stderr: a later resume prints the (stdout) report, which must be
         byte-identical to an uninterrupted run's. *)
      Format.eprintf "chaos: suspended after %d checkpoint(s) -> %s@."
        checkpoints file

let chaos ?trace ?faults ~fault_seed ?jobs ~seeds ~checkpoint_every_ms
    ~checkpoint_file ~stop_after ?resume ~rounds ~ops () =
  let spec = Option.map parse_faults faults in
  let every_ms = positive checkpoint_every_ms in
  (* A checkpointed soak holds one seed and no trace sink, and a resume
     takes its spec from the checkpoint: refuse a flag the run would
     otherwise drop. *)
  let refuse mode flag why =
    Format.eprintf "m3vsim chaos: %s is incompatible with %s (%s)@." mode flag
      why;
    exit 2
  in
  let no_trace = "trace sinks hold channels, which cannot be checkpointed"
  and seeds_flag = Printf.sprintf "--seeds %d" seeds
  and one_seed = "a checkpointed soak holds a single seed" in
  match (resume, every_ms) with
  | Some file, _ -> (
      if Option.is_some trace then refuse "--resume" "--trace" no_trace;
      if Option.is_some faults then
        refuse "--resume" "--faults" "the checkpoint fixes the fault spec";
      if seeds > 1 then refuse "--resume" seeds_flag one_seed;
      match
        Exp_chaos.resume ~file ?stop_after:(positive stop_after) ()
      with
      | Error msg ->
          Format.eprintf "m3vsim chaos: %s@." msg;
          exit 1
      | Ok outcome -> chaos_outcome outcome)
  | None, Some ms ->
      if Option.is_some trace then refuse "--checkpoint-every" "--trace" no_trace;
      if seeds > 1 then refuse "--checkpoint-every" seeds_flag one_seed;
      chaos_outcome
        (Exp_chaos.run_checkpointed ?spec ~seed:fault_seed
           ?fs_rounds:(positive rounds) ?kv_ops:(positive ops)
           ~every:(M3v_sim.Time.ms ms) ~file:checkpoint_file
           ?stop_after:(positive stop_after) ())
  | None, None ->
      run { default with trace; jobs } (fun pool ->
          Exp_chaos.run_sweep ~pool ?spec ~seed:fault_seed ~seeds
            ?fs_rounds:(positive rounds) ?kv_ops:(positive ops) ()
          |> List.iter Exp_chaos.print)

(* Critical-path profiler entry point: run one experiment sequentially
   under a private trace sink (flow events need the single-domain sink),
   then decompose every message flow's end-to-end latency into
   paper-aligned segments.  [trace]/[folded]/[metrics] optionally dump
   the raw Chrome trace, a flamegraph-style folded-stack file, and the
   metrics registry alongside the profile tables. *)
let profile ~exp ?trace ?folded ?metrics ~rounds ~runs () =
  (* Resolve the name first: an unknown experiment must not leave empty
     output files behind. *)
  let e =
    match find exp with
    | Some e -> e
    | None ->
        Format.eprintf "m3vsim profile: unknown experiment %S (expected %s)@."
          exp
          (String.concat "|" (List.map (fun e -> e.name) experiments));
        exit 2
  in
  let size =
    match e.size with
    | Some Rounds -> positive rounds
    | Some Runs -> positive runs
    | None -> None
  in
  let trace =
    Option.map (fun path -> (path, open_out_or_exit "trace" path)) trace
  in
  let folded =
    Option.map (fun path -> (path, open_out_or_exit "folded-stack" path)) folded
  in
  let sink = M3v_obs.Trace.make () in
  with_metrics metrics (fun () ->
      M3v_obs.Trace.with_sink sink (fun () ->
          let (_ : unit -> unit) = e.run Par.Pool.sequential size in
          ()));
  Option.iter
    (fun (path, oc) ->
      M3v_obs.Chrome.write oc sink;
      close_out oc;
      Format.printf "trace: %d events -> %s@."
        (M3v_obs.Trace.event_count sink)
        path)
    trace;
  Option.iter
    (fun (path, oc) ->
      Buffer.output_buffer oc (M3v_obs.Profile.folded sink);
      close_out oc;
      Format.printf "folded stacks -> %s@." path)
    folded;
  M3v_obs.Profile.print Format.std_formatter (M3v_obs.Profile.analyze sink)

(* Fan out whole experiments as tasks (they also fan out internally via
   the same pool); each task returns its printer, which main runs in
   submission order, so the combined report is byte-identical to a
   sequential run. *)
let all ?jobs () =
  run { default with jobs } (fun pool ->
      Par.all pool (List.map (fun e () -> e.run pool None) experiments)
      |> List.iter (fun print -> print ()))
