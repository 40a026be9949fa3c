(* m3vsim: run the paper's experiments and print each table/figure.

   Usage: m3vsim <experiment> [options], or `m3vsim all`.  The figures,
   voice, fanin and load accept --trace FILE to additionally record a
   Chrome trace-event JSON file (load it in chrome://tracing or Perfetto)
   and print latency percentiles, --metrics FILE, and fault injection:
   --faults SPEC (e.g. drop=0.01,dup=0.005,crash=2) plus --fault-seed N
   runs the experiment under a deterministic fault plan.  ablations,
   migrate and chaos take a subset; table1 and complexity take none.

   Parallelism: --jobs N fans independent units of the experiment out
   over N domains (default: the number of cores).  Output is
   byte-identical to a sequential run, with --trace, --metrics and
   --faults too: each task records into its own child of the sink and
   registry and draws from its own child of the fault plan, and the
   children join in submission order. *)

open Cmdliner

let trace =
  let doc =
    "Record the run into a Chrome trace-event JSON file at $(docv) \
     (viewable in chrome://tracing or Perfetto) and print latency \
     percentiles and a per-tile event summary."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let metrics =
  let doc =
    "Export the metrics registry (counters, gauges, histograms, \
     time-series) as JSON to $(docv) and print the metric tables.  \
     Metrics honour --jobs: --jobs 4 output is byte-identical to --jobs \
     1."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let faults =
  let doc =
    "Inject deterministic faults described by $(docv), a comma-separated \
     list of key=value pairs.  Probabilities in [0,1]: drop, dup and delay \
     (per data packet), cmd_fail (per DTU command), crash_p and hang_p \
     (per TMCall boundary, defaults 0.005) and mig_abort_p (per \
     abortable migration phase, default 0.25).  Counts: crash, hang and \
     mig_abort (the most to inject in each task of the run) and delay_ps \
     (the largest injected delay in ps, default 200000).  Each task \
     draws its own fault stream, so the run honours --jobs.  E.g. \
     drop=0.01,dup=0.005,crash=2."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~docv:"SPEC" ~doc)

let fault_seed =
  let doc = "Seed for the fault plan (same spec + seed = same run)." in
  Arg.(value & opt int 7 & info [ "fault-seed" ] ~docv:"N" ~doc)

let jobs =
  let doc =
    "Run independent parts of the experiment on $(docv) domains \
     (defaults to the number of cores).  Output is byte-identical to \
     --jobs 1, traces, metrics and fault runs included."
  in
  Arg.(value & opt (some int) None & info [ "jobs"; "j" ] ~docv:"N" ~doc)

(* The five settings every System experiment takes. *)
let opts =
  Term.(const (fun trace metrics faults fault_seed jobs ->
            { M3v.Exp_runner.trace; metrics; faults; fault_seed; jobs })
        $ trace $ metrics $ faults $ fault_seed $ jobs)

(* The size flags of the registry's entries; <= 0 picks the default. *)
let rounds =
  let doc =
    "Measured RPC round trips of fig6 (<= 0 picks the default, 1000)."
  in
  Arg.(value & opt int 0 & info [ "rounds" ] ~doc)

let runs =
  let doc = "Measured repetitions (<= 0 picks the experiment's default)." in
  Arg.(value & opt int 0 & info [ "runs" ] ~doc)

(* The subcommand of a registry entry: [settings], its size flag if it
   has one, and the entry run through [Exp_runner.run]. *)
let entry_cmd settings (e : M3v.Exp_runner.experiment) =
  let size =
    match e.size with
    | None -> Term.const 0
    | Some Rounds -> rounds
    | Some Runs -> runs
  in
  Cmd.v (Cmd.info e.name ~doc:e.doc)
    Term.(const (fun o n ->
              M3v.Exp_runner.(run o (fun pool -> e.run pool (positive n) ())))
          $ settings $ size)

(* Every sized experiment (the figures and the voice assistant) takes all
   five settings. *)
let sized_cmds =
  List.filter
    (fun (e : M3v.Exp_runner.experiment) -> e.size <> None)
    M3v.Exp_runner.experiments
  |> List.map (entry_cmd opts)

let entry name = Option.get (M3v.Exp_runner.find name)

(* table1 and complexity simulate nothing: they take no settings, and a
   1-wide pool spawns no worker domains. *)
let serial_cmds =
  List.map
    (fun name ->
      entry_cmd
        (Term.const { M3v.Exp_runner.default with jobs = Some 1 })
        (entry name))
    [ "table1"; "complexity" ]

let ablations_cmd =
  entry_cmd
    Term.(const (fun trace jobs -> { M3v.Exp_runner.default with trace; jobs })
          $ trace $ jobs)
    (entry "ablations")

(* Exit 2 with one stderr line when a swept count is below 1. *)
let require_positive cmd what counts =
  match List.find_opt (fun n -> n < 1) counts with
  | Some n ->
      Format.eprintf "m3vsim %s: %s must be positive (got %d)@." cmd what n;
      Stdlib.exit 2
  | None -> ()

let fanin_msgs =
  let doc = "Messages per sender (<= 0 picks the default)." in
  Arg.(value & opt int 0 & info [ "msgs" ] ~docv:"N" ~doc)

let fanin_senders =
  let doc =
    "Comma-separated sender counts to sweep (defaults to 4,16,64)."
  in
  Arg.(value & opt (list int) [] & info [ "senders" ] ~docv:"N,..." ~doc)

let fanin_cmd =
  Cmd.v (Cmd.info "fanin" ~doc:(entry "fanin").doc)
    Term.(const (fun o msgs senders ->
              require_positive "fanin" "sender counts" senders;
              let sender_counts =
                match senders with [] -> None | counts -> Some counts
              in
              let msgs = M3v.Exp_runner.positive msgs in
              M3v.Exp_runner.run o (fun pool ->
                  M3v.Exp_fanin.(print (run ~pool ?msgs ?sender_counts ()))))
          $ opts $ fanin_msgs $ fanin_senders)

let load_clients =
  let doc = "Total simulated clients in the fleet." in
  Arg.(value & opt int 100_000 & info [ "clients" ] ~docv:"N" ~doc)

let load_drivers =
  let doc = "Driver activities the clients multiplex onto (1-8)." in
  Arg.(value & opt int 8 & info [ "drivers" ] ~docv:"N" ~doc)

let load_rate =
  let doc = "Aggregate offered load (requests/s) at step fraction 1.0." in
  Arg.(value & opt float 2000.0 & info [ "rate" ] ~docv:"R" ~doc)

let load_mix =
  let doc =
    "Request mix as class=weight pairs over udp, get, put and fs, e.g. \
     udp=50,get=25,put=10,fs=15 (the default)."
  in
  Arg.(value & opt (some string) None & info [ "mix" ] ~docv:"SPEC" ~doc)

let load_skew =
  let doc = "Zipf theta over the key space, in [0, 1)." in
  Arg.(value & opt float 0.99 & info [ "skew" ] ~docv:"THETA" ~doc)

let load_keys =
  let doc = "Key-space size." in
  Arg.(value & opt int 4096 & info [ "keys" ] ~docv:"N" ~doc)

let load_duration =
  let doc = "Measurement window per step, simulated milliseconds." in
  Arg.(value & opt int 200 & info [ "duration" ] ~docv:"MS" ~doc)

let load_steps =
  let doc = "Comma-separated load steps as fractions of --rate." in
  Arg.(value
       & opt (list float) [ 0.25; 0.5; 0.75; 1.0; 1.25; 1.5 ]
       & info [ "steps" ] ~docv:"F,..." ~doc)

let load_closed =
  let doc =
    "Closed-loop fleet (each client thinks --think-ms between requests) \
     instead of the default open loop."
  in
  Arg.(value & flag & info [ "closed" ] ~doc)

let load_think =
  let doc = "Closed-loop mean think time (ms) at step fraction 1.0." in
  Arg.(value & opt int 500 & info [ "think-ms" ] ~docv:"MS" ~doc)

let load_arrivals =
  let doc = "Open-loop arrival process: poisson or bursty (2-state MMPP)." in
  Arg.(value
       & opt (enum [ ("poisson", M3v_load.Fleet.Poisson);
                     ("bursty", M3v_load.Fleet.Bursty) ])
           M3v_load.Fleet.Poisson
       & info [ "arrivals" ] ~docv:"KIND" ~doc)

let load_slo =
  let doc = "SLO bound on overall p99 latency (us) for knee detection." in
  Arg.(value & opt float 5000.0 & info [ "slo-p99-us" ] ~docv:"US" ~doc)

let load_seed =
  let doc = "Fleet schedule seed (same seed = byte-identical report)." in
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc)

let load_cmd =
  Cmd.v
    (Cmd.info "load"
       ~doc:
         "Load harness: open/closed-loop client fleets drive net + m3fs + \
          the key-value service at swept offered load; reports \
          latency-vs-load SLO tables (p50/p99/p999), detects the \
          saturation knee and attributes the bottleneck from the \
          critical-path profiler")
    Term.(const (fun o clients drivers rate mix skew keys duration steps
                     closed think_ms arrivals slo seed ->
              let mix =
                match mix with
                | None -> M3v_load.Fleet.default_mix
                | Some s -> (
                    match M3v_load.Fleet.parse_mix s with
                    | Ok m -> m
                    | Error e ->
                        Format.eprintf "m3vsim load: bad --mix: %s@." e;
                        Stdlib.exit 2)
              in
              let cfg =
                {
                  M3v.Exp_load.default with
                  clients;
                  drivers;
                  rate_per_s = rate;
                  closed;
                  think_ms;
                  arrivals;
                  mix;
                  skew;
                  keys;
                  duration_ms = duration;
                  fracs = steps;
                  slo_p99_us = slo;
                  seed;
                }
              in
              (match M3v.Exp_load.validate cfg with
              | Ok () -> ()
              | Error e ->
                  Format.eprintf "m3vsim load: %s@." e;
                  Stdlib.exit 2);
              M3v.Exp_runner.run o (fun pool ->
                  M3v.Exp_load.(print (run ~pool ~cfg ()))))
          $ opts $ load_clients $ load_drivers $ load_rate $ load_mix
          $ load_skew $ load_keys $ load_duration $ load_steps $ load_closed
          $ load_think $ load_arrivals $ load_slo $ load_seed)

let mig_rounds =
  let doc = "RPCs the client drives through the migrating server." in
  Arg.(value & opt int 0 & info [ "rounds" ] ~doc)

let mig_rates =
  let doc =
    "Comma-separated request rates (msgs/s) to sweep (defaults to \
     2000,10000,40000)."
  in
  Arg.(value & opt (list int) [] & info [ "rates" ] ~docv:"N,..." ~doc)

let mig_seed =
  let doc = "Seed for the fault plan of the faulty half of the sweep." in
  Arg.(value & opt int 11 & info [ "fault-seed" ] ~docv:"N" ~doc)

let migrate_cmd =
  Cmd.v (Cmd.info "migrate" ~doc:(entry "migrate").doc)
    Term.(const (fun trace metrics jobs seed rounds rates ->
              require_positive "migrate" "rates" rates;
              let rates = match rates with [] -> None | l -> Some l in
              let rounds = M3v.Exp_runner.positive rounds in
              M3v.Exp_runner.(run { default with trace; metrics; jobs })
                (fun pool ->
                  M3v.Exp_migrate.(
                    List.iter print (run ~pool ?rounds ?rates ~seed ()))))
          $ trace $ metrics $ jobs $ mig_seed $ mig_rounds $ mig_rates)

let chaos_rounds =
  let doc = "Full read+write rounds for the fs workload." in
  Arg.(value & opt int 5 & info [ "rounds" ] ~doc)

let chaos_ops =
  let doc = "Inline put/get operations for the kv workload." in
  Arg.(value & opt int 120 & info [ "ops" ] ~doc)

let chaos_seeds =
  let doc =
    "Soak $(docv) consecutive seeds starting at --fault-seed, fanned out \
     over --jobs domains; each seed prints its own report."
  in
  Arg.(value & opt int 1 & info [ "seeds" ] ~docv:"N" ~doc)

let chaos_ckpt_every =
  let doc =
    "Checkpoint the whole simulator every $(docv) simulated milliseconds \
     (to --checkpoint-file); a run resumed from such a checkpoint prints \
     a byte-identical report.  Single-seed; incompatible with --trace."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-every" ] ~docv:"MS" ~doc)

let chaos_ckpt_file =
  let doc = "Checkpoint file path (overwritten atomically at each save)." in
  Arg.(value
       & opt string "chaos.ckpt"
       & info [ "checkpoint-file" ] ~docv:"FILE" ~doc)

let chaos_stop_after =
  let doc =
    "Abandon the run after the $(docv)-th checkpoint is written (resume \
     later with --resume); with 0, run to completion."
  in
  Arg.(value & opt int 0 & info [ "stop-after" ] ~docv:"N" ~doc)

let chaos_resume =
  let doc =
    "Resume a checkpointed soak from $(docv) instead of starting one \
     (must be the same m3vsim binary that wrote it)."
  in
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE" ~doc)

let chaos_cmd =
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Chaos soak: fs + kvstore workloads under fault injection \
          (defaults to drop=0.01,dup=0.005,delay=0.01,cmd_fail=0.005,\
          crash=2,hang=1 when --faults is omitted); \
          --checkpoint-every/--resume stop and restart the soak across \
          processes with byte-identical results")
    Term.(const (fun trace faults fault_seed jobs seeds ckpt_every ckpt_file
                     stop_after resume rounds ops ->
              M3v.Exp_runner.chaos ?trace ?faults ~fault_seed ?jobs ~seeds
                ~checkpoint_every_ms:ckpt_every ~checkpoint_file:ckpt_file
                ~stop_after ?resume ~rounds ~ops ())
          $ trace $ faults $ fault_seed $ jobs $ chaos_seeds $ chaos_ckpt_every
          $ chaos_ckpt_file $ chaos_stop_after $ chaos_resume $ chaos_rounds
          $ chaos_ops)

let profile_exp =
  let doc =
    "Experiment to profile: "
    ^ String.concat ", "
        (List.map (fun (e : M3v.Exp_runner.experiment) -> e.name)
           M3v.Exp_runner.experiments)
    ^ " (default fig6)."
  in
  Arg.(value & pos 0 string "fig6" & info [] ~docv:"EXP" ~doc)

let folded =
  let doc =
    "Also write flamegraph-style folded stacks of simulated-time spans \
     (one $(i,frame;frame weight) line per stack; feed to flamegraph.pl \
     or speedscope) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "folded" ] ~docv:"FILE" ~doc)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Critical-path profiler: trace an experiment and decompose each \
          message flow's end-to-end latency into paper-aligned segments \
          (sender command, NoC transit, mux scheduling delay, \
          activity-switch cost, buffer wait, server compute, reply) with \
          p50/p99 per segment")
    Term.(const (fun exp trace folded metrics rounds runs ->
              M3v.Exp_runner.profile ~exp ?trace ?folded ?metrics ~rounds
                ~runs ())
          $ profile_exp $ trace $ folded $ metrics $ rounds $ runs)

let all_cmd =
  Cmd.v (Cmd.info "all" ~doc:"Run every experiment (paper evaluation order)")
    Term.(const (fun jobs () -> M3v.Exp_runner.all ?jobs ()) $ jobs $ const ())

(* Bare `m3vsim` shows the experiment list. *)
let default = Term.(ret (const (`Help (`Pager, None))))

let () =
  let info = Cmd.info "m3vsim" ~doc:"M3v reproduction: experiment runner" in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          (sized_cmds @ [ chaos_cmd; migrate_cmd ] @ serial_cmds
          @ [ ablations_cmd; fanin_cmd; load_cmd; profile_cmd; all_cmd ])))
