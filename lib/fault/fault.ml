(* Deterministic chaos layer.

   A fault [plan] is a parsed [spec] (rates and budgets) plus a dedicated
   [Rng.t], installed domain-locally like a trace sink.  Fault decisions
   are drawn in simulation order from that RNG, so the same spec and seed
   reproduce the same fault schedule byte for byte.

   Fault model: the NoC data plane is best-effort (message, reply and DMA
   packets may be dropped, duplicated or delayed) while the control
   sideband — completion acks, credit returns, controller wires — is
   lossless, mirroring credit-managed MPMC queue hardware where the tiny
   fixed-size control channel is engineered for reliability.  The
   consequence the DTU relies on: a send whose completion never arrives
   was never consumed at the receiver, so refunding the credit on final
   timeout cannot mint credits.

   When no domain has a plan installed every hook is a single atomic
   load, and with none on this domain ([on () = false]) the simulated
   timeline is bit-identical to a build without this library. *)

module Rng = M3v_sim.Rng
module Trace = M3v_obs.Trace
module Ambient = M3v_obs.Ambient

type spec = {
  drop : float;
  dup : float;
  delay : float;
  delay_ps : int;
  cmd_fail : float;
  crash : int;
  crash_p : float;
  hang : int;
  hang_p : float;
  mig_abort : int;
  mig_abort_p : float;
}

let none =
  {
    drop = 0.;
    dup = 0.;
    delay = 0.;
    delay_ps = 200_000;
    cmd_fail = 0.;
    crash = 0;
    crash_p = 5e-3;
    hang = 0;
    hang_p = 5e-3;
    mig_abort = 0;
    mig_abort_p = 0.25;
  }

let parse s =
  let parse_field spec kv =
    match String.index_opt kv '=' with
    | None -> Error (Printf.sprintf "fault spec: expected key=value, got %S" kv)
    | Some i -> (
        let key = String.sub kv 0 i in
        let value = String.sub kv (i + 1) (String.length kv - i - 1) in
        let fl () =
          match float_of_string_opt value with
          | Some f when f >= 0. -> Ok f
          | _ -> Error (Printf.sprintf "fault spec: bad number for %s: %S" key value)
        in
        let it () =
          match int_of_string_opt value with
          | Some n when n >= 0 -> Ok n
          | _ -> Error (Printf.sprintf "fault spec: bad count for %s: %S" key value)
        in
        match key with
        | "drop" -> Result.map (fun v -> { spec with drop = v }) (fl ())
        | "dup" -> Result.map (fun v -> { spec with dup = v }) (fl ())
        | "delay" -> Result.map (fun v -> { spec with delay = v }) (fl ())
        | "delay_ps" -> Result.map (fun v -> { spec with delay_ps = v }) (it ())
        | "cmd_fail" -> Result.map (fun v -> { spec with cmd_fail = v }) (fl ())
        | "crash" -> Result.map (fun v -> { spec with crash = v }) (it ())
        | "crash_p" -> Result.map (fun v -> { spec with crash_p = v }) (fl ())
        | "hang" -> Result.map (fun v -> { spec with hang = v }) (it ())
        | "hang_p" -> Result.map (fun v -> { spec with hang_p = v }) (fl ())
        | "mig_abort" -> Result.map (fun v -> { spec with mig_abort = v }) (it ())
        | "mig_abort_p" ->
            Result.map (fun v -> { spec with mig_abort_p = v }) (fl ())
        | _ -> Error (Printf.sprintf "fault spec: unknown key %S" key))
  in
  let fields =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun f -> f <> "")
  in
  List.fold_left
    (fun acc kv -> Result.bind acc (fun spec -> parse_field spec kv))
    (Ok none) fields

(* Every field that differs from [none], in [parse]'s key order.  A float
   prints with %g unless that loses bits, so [parse] reads back the same
   spec. *)
let spec_to_string spec =
  let b = Buffer.create 64 in
  let fld name v d =
    if v <> d then begin
      let s = Printf.sprintf "%g" v in
      let s = if float_of_string s = v then s else Printf.sprintf "%.17g" v in
      Buffer.add_string b (Printf.sprintf "%s=%s," name s)
    end
  in
  let ifld name v d =
    if v <> d then Buffer.add_string b (Printf.sprintf "%s=%d," name v)
  in
  fld "drop" spec.drop none.drop;
  fld "dup" spec.dup none.dup;
  fld "delay" spec.delay none.delay;
  (* The size of each delay: shown whenever delays are on. *)
  if spec.delay > 0. || spec.delay_ps <> none.delay_ps then
    Buffer.add_string b (Printf.sprintf "delay_ps=%d," spec.delay_ps);
  fld "cmd_fail" spec.cmd_fail none.cmd_fail;
  ifld "crash" spec.crash none.crash;
  fld "crash_p" spec.crash_p none.crash_p;
  ifld "hang" spec.hang none.hang;
  fld "hang_p" spec.hang_p none.hang_p;
  ifld "mig_abort" spec.mig_abort none.mig_abort;
  fld "mig_abort_p" spec.mig_abort_p none.mig_abort_p;
  let s = Buffer.contents b in
  if s = "" then "none" else String.sub s 0 (String.length s - 1)

type stats = {
  mutable dropped : int;
  mutable duplicated : int;
  mutable delayed : int;
  mutable cmd_glitches : int;
  mutable crashes_injected : int;
  mutable hangs_injected : int;
  mutable mig_aborts_injected : int;
}

type t = {
  spec : spec;
  seed : int;
  rng : Rng.t;
  stats : stats;
  protected : (int, unit) Hashtbl.t;
  mutable crash_left : int;
  mutable hang_left : int;
  mutable mig_abort_left : int;
  mutable forks : int; (* children forked for pool tasks so far *)
}

let create ?(seed = 1) spec =
  {
    spec;
    seed;
    rng = Rng.create ~seed;
    stats =
      {
        dropped = 0;
        duplicated = 0;
        delayed = 0;
        cmd_glitches = 0;
        crashes_injected = 0;
        hangs_injected = 0;
        mig_aborts_injected = 0;
      };
    protected = Hashtbl.create 8;
    crash_left = spec.crash;
    hang_left = spec.hang;
    mig_abort_left = spec.mig_abort;
    forks = 0;
  }

let stats t = t.stats
let spec t = t.spec

(* --- ambient installation, like Trace's sink: domain-local, and a pool
   task runs under a child of its submitter's plan.  The child draws from
   a stream of its own, seeded from the parent's seed and the child's
   place among the parent's forks, so each task's faults are the same
   whichever domain runs it; it has the whole spec's crash, hang and
   mig_abort budgets, and its tallies add into the parent's at join. --- *)

let fork t =
  t.forks <- t.forks + 1;
  create ~seed:(Hashtbl.hash (t.seed, t.forks)) t.spec

let join parent child =
  let p = parent.stats and c = child.stats in
  p.dropped <- p.dropped + c.dropped;
  p.duplicated <- p.duplicated + c.duplicated;
  p.delayed <- p.delayed + c.delayed;
  p.cmd_glitches <- p.cmd_glitches + c.cmd_glitches;
  p.crashes_injected <- p.crashes_injected + c.crashes_injected;
  p.hangs_injected <- p.hangs_injected + c.hangs_injected;
  p.mig_aborts_injected <- p.mig_aborts_injected + c.mig_aborts_injected

let current : t Ambient.t =
  Ambient.make ~fork ~join ~start:(fun () -> ignore)

let[@inline] on () = Ambient.on current
let installed_domains () = Ambient.domains current
let with_plan t f = Ambient.with_ current t f

(* [protect] exempts an activity from crash/hang injection (e.g. the
   pager, whose loss would wedge every faulting activity on the tile
   rather than exercise recovery). *)
let protect t ~act = Hashtbl.replace t.protected act ()

(* --- decision hooks --- *)

type noc_fate = Deliver | Drop | Duplicate | Delay of int

let noc_fate ~now ~src ~dst =
  match Ambient.get current with
  | None -> Deliver
  | Some p ->
      let r = Rng.float p.rng in
      let s = p.spec in
      if r < s.drop then begin
        p.stats.dropped <- p.stats.dropped + 1;
        if Trace.on () then
          Trace.instant ~cat:"fault" ~name:"noc_drop" ~tile:src ~ts:now
            ~args:[ ("dst", Trace.I dst) ]
            ();
        Drop
      end
      else if r < s.drop +. s.dup then begin
        p.stats.duplicated <- p.stats.duplicated + 1;
        if Trace.on () then
          Trace.instant ~cat:"fault" ~name:"noc_dup" ~tile:src ~ts:now
            ~args:[ ("dst", Trace.I dst) ]
            ();
        Duplicate
      end
      else if r < s.drop +. s.dup +. s.delay then begin
        p.stats.delayed <- p.stats.delayed + 1;
        let extra = 1 + Rng.int p.rng (max 1 s.delay_ps) in
        if Trace.on () then
          Trace.instant ~cat:"fault" ~name:"noc_delay" ~tile:src ~ts:now
            ~args:[ ("dst", Trace.I dst); ("extra_ps", Trace.I extra) ]
            ();
        Delay extra
      end
      else Deliver

let cmd_fails ~now ~tile =
  match Ambient.get current with
  | None -> false
  | Some p ->
      p.spec.cmd_fail > 0.
      && Rng.float p.rng < p.spec.cmd_fail
      && begin
           p.stats.cmd_glitches <- p.stats.cmd_glitches + 1;
           if Trace.on () then
             Trace.instant ~cat:"fault" ~name:"cmd_glitch" ~tile ~ts:now ();
           true
         end

type act_fate = Crash | Hang

(* Drawn at TMCall boundaries.  Budgeted: at most [spec.crash] crashes and
   [spec.hang] hangs are injected per plan (per pool task), each with
   per-boundary probability [crash_p]/[hang_p] while budget remains. *)
let act_fate ~now ~tile ~act =
  match Ambient.get current with
  | None -> None
  | Some p ->
      if Hashtbl.mem p.protected act then None
      else if p.crash_left > 0 && Rng.float p.rng < p.spec.crash_p then begin
        p.crash_left <- p.crash_left - 1;
        p.stats.crashes_injected <- p.stats.crashes_injected + 1;
        if Trace.on () then
          Trace.instant ~cat:"fault" ~name:"inject_crash" ~tile ~act ~ts:now ();
        Some Crash
      end
      else if p.hang_left > 0 && Rng.float p.rng < p.spec.hang_p then begin
        p.hang_left <- p.hang_left - 1;
        p.stats.hangs_injected <- p.stats.hangs_injected + 1;
        if Trace.on () then
          Trace.instant ~cat:"fault" ~name:"inject_hang" ~tile ~act ~ts:now ();
        Some Hang
      end
      else None

(* Drawn once per migration at each abortable phase boundary (before the
   atomic endpoint flip).  Budgeted like crash/hang: at most
   [spec.mig_abort] aborts per plan, each with probability
   [mig_abort_p] while budget remains.  After the flip the protocol can
   only roll forward, so the controller stops consulting this hook. *)
let mig_fate ~now ~tile ~act ~phase =
  match Ambient.get current with
  | None -> false
  | Some p ->
      p.mig_abort_left > 0
      && Rng.float p.rng < p.spec.mig_abort_p
      && begin
           p.mig_abort_left <- p.mig_abort_left - 1;
           p.stats.mig_aborts_injected <- p.stats.mig_aborts_injected + 1;
           if Trace.on () then
             Trace.instant ~cat:"fault" ~name:"inject_mig_abort" ~tile ~act
               ~ts:now
               ~args:[ ("phase", Trace.S phase) ]
               ();
           true
         end

let pp_stats fmt s =
  Format.fprintf fmt
    "%d dropped, %d duplicated, %d delayed, %d cmd glitches, %d crashes, %d \
     hangs, %d migration aborts"
    s.dropped s.duplicated s.delayed s.cmd_glitches s.crashes_injected
    s.hangs_injected s.mig_aborts_injected
