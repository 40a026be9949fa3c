module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Platform = M3v_tile.Platform
module Controller = M3v_kernel.Controller
module Runtime = M3v_mux.Runtime
module Dtu = M3v_dtu.Dtu
module Ep = M3v_dtu.Ep
module Trace = M3v_obs.Trace
module Metrics = M3v_obs.Metrics

type variant = M3v | M3x

type channel = { sgate : int; rgate : int; reply_ep : int }

type t = {
  variant : variant;
  engine : Engine.t;
  platform : Platform.t;
  ctrl : Controller.t;
  runtimes : (int, Runtime.t) Hashtbl.t;
}

let create ?spec ?topology ?timeslice ~variant () =
  let spec = match spec with Some s -> s | None -> Platform.fpga_spec () in
  let engine = Engine.create () in
  (* With tracing or metrics on, every 1024 processed events sample the
     queue depth into the trace and every metric's time series.  The
     engine takes a plain observer so lib/sim stays free of lib/obs. *)
  if Trace.on () || Metrics.on () then
    Engine.set_observer engine
      (Some
         (fun now pending ->
           if Trace.on () then
             Trace.counter ~cat:"engine" ~name:"pending_events" ~ts:now
               ~value:(float_of_int pending) ();
           if Metrics.on () then begin
             Metrics.gauge_set ~name:"engine/pending_events" ~ts:now
               (float_of_int pending);
             Metrics.sample_ambient ~ts:now
           end));
  let platform =
    Platform.create ?topology ~virtualized:(variant = M3v) ~tiles:spec engine
      ()
  in
  let ctrl_tile = Platform.controller_tile platform in
  let mode = match variant with M3v -> Controller.M3v | M3x -> Controller.M3x in
  let ctrl = Controller.create ~mode ~platform ~tile:ctrl_tile () in
  let runtimes = Hashtbl.create 8 in
  let rmode =
    match variant with M3v -> Runtime.M3v_mode | M3x -> Runtime.M3x_mode
  in
  List.iter
    (fun tile ->
      Hashtbl.replace runtimes tile
        (Runtime.create ~mode:rmode ~controller:ctrl ~tile ?timeslice ()))
    (Platform.processing_tiles platform);
  { variant; engine; platform; ctrl; runtimes }

let variant t = t.variant
let engine t = t.engine
let platform t = t.platform
let controller t = t.ctrl

let runtime t ~tile =
  match Hashtbl.find_opt t.runtimes tile with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "System.runtime: tile %d is not a processing tile" tile)

let spawn t ~tile ~name ?premap program =
  Runtime.spawn (runtime t ~tile) ~name ?premap ~program ()

let channel t ~src ~dst ?(slots = 8) ?(credits = 4) () =
  let slot_size = 512 in
  let rgate_sel =
    Controller.host_new_rgate t.ctrl ~act:dst ~slots ~slot_size
  in
  let rgate = Controller.host_activate t.ctrl ~act:dst ~sel:rgate_sel () in
  let sgate_sel =
    Controller.host_new_sgate t.ctrl ~owner:src ~rgate_of:dst ~rgate_sel
      ~label:src ~credits ()
  in
  let sgate = Controller.host_activate t.ctrl ~act:src ~sel:sgate_sel () in
  (* Reply gate on the sender's side, sized to match outstanding RPCs. *)
  let reply_sel =
    Controller.host_new_rgate t.ctrl ~act:src ~slots:credits ~slot_size
  in
  let reply_ep = Controller.host_activate t.ctrl ~act:src ~sel:reply_sel () in
  { sgate; rgate; reply_ep }

let mem_region t ~act ~size ~perm =
  let mem_tile, base = Controller.host_alloc_mem t.ctrl ~size in
  let sel = Controller.host_new_mgate t.ctrl ~act ~mem_tile ~base ~size ~perm in
  let ep = Controller.host_activate t.ctrl ~act ~sel () in
  (sel, ep)

let with_pager t ~tile =
  if t.variant <> M3v then
    invalid_arg "System.with_pager: pager-managed paging is M3v-only here";
  (* Spawn first so the activity exists, then build its receive gate and
     connect every TileMux with a send gate owned by the TileMux id. *)
  let rgate_ref = ref (-1) in
  let pager_aid, _env =
    spawn t ~tile ~name:"pager" ~premap:true
      (fun env -> M3v_os.Pager.program ~rgate:!rgate_ref () env)
  in
  let rgate_sel =
    Controller.host_new_rgate t.ctrl ~act:pager_aid ~slots:32 ~slot_size:128
  in
  let rgate = Controller.host_activate t.ctrl ~act:pager_aid ~sel:rgate_sel () in
  rgate_ref := rgate;
  (* One TileMux send gate per processing tile. *)
  Hashtbl.iter
    (fun rt_tile rt ->
      let ep = Controller.host_alloc_ep_anon t.ctrl ~tile:rt_tile in
      Dtu.ext_config
        (Platform.dtu t.platform rt_tile)
        ~ep ~owner:M3v_dtu.Dtu_types.tilemux_act
        (Ep.send_config ~dst_tile:tile ~dst_ep:rgate ~label:rt_tile
           ~max_msg_size:112 ~credits:2 ());
      Runtime.set_pager_sgate rt ep)
    t.runtimes;
  pager_aid

let boot t = Hashtbl.iter (fun _ rt -> Runtime.boot rt) t.runtimes

let run ?until t = Engine.run ?until t.engine

let run_while t cond =
  let rec loop () =
    if cond () then begin
      let n = Engine.run ~max_events:10_000 t.engine in
      if n > 0 then loop ()
    end
  in
  loop ()
