(* Host cost on the event path: layer counters are bumped in place, yet a
   [stats] value is a snapshot that later traffic leaves alone; counter
   bumps, an event-queue push/pop cycle, a retry loop's steps and the
   observability emitters with nothing installed allocate nothing; saving
   and restoring endpoints moves their
   records instead of copying them; a memory endpoint's DRAM window is
   backed when the endpoint is configured, and page-sized DRAM accesses
   allocate nothing; an LSM compaction takes under twice its tables' bytes
   from the major heap; NoC routes come from a table that matches a
   next-hop walk. *)

open M3v_sim
open M3v_sim.Proc.Syntax
open M3v_noc
module Dtu = M3v_dtu.Dtu
module Dram = M3v_dtu.Dram
module Ep = M3v_dtu.Ep
module Controller = M3v_kernel.Controller
module Kvstore = M3v_apps.Kvstore
module Nic = M3v_os.Nic
module System = M3v.System
module Services = M3v.Services
module A = M3v_mux.Act_api
module Proto = M3v_kernel.Protocol

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- snapshots --- *)

let test_dtu_noc_dram_snapshots () =
  let eng = Engine.create () in
  let noc = Noc.create eng (Topology.star_mesh_2x2 ~tiles:3) in
  let dtu = Dtu.create ~virtualized:true ~tile:0 eng noc in
  let dram = Dram.create ~size:4096 () in
  let d0 = Dtu.stats dtu and n0 = Noc.stats noc and m0 = Dram.stats dram in
  ignore (Dtu.fetch dtu ~ep:1);
  Noc.send noc ~src:0 ~dst:2 ~bytes:64 ~on_delivered:(fun () -> ());
  ignore (Engine.run eng);
  Dram.fill dram ~off:0 ~len:16 'x';
  check_int "dtu snapshot kept" 0 d0.Dtu.fetches;
  check_int "dtu live" 1 (Dtu.stats dtu).Dtu.fetches;
  check_int "noc snapshot kept" 0 n0.Noc.packets;
  check_int "noc snapshot bytes kept" 0 n0.Noc.payload_bytes;
  check_int "dram snapshot kept" 0 m0.Dram.writes;
  check_int "dram live" 16 (Dram.stats dram).Dram.bytes_written;
  let n1 = Noc.stats noc in
  Noc.reset_stats noc;
  check_int "reset leaves the earlier snapshot" 1 n1.Noc.packets;
  check_int "reset clears the live counters" 0 (Noc.stats noc).Noc.packets;
  Noc.send noc ~src:1 ~dst:2 ~bytes:8 ~on_delivered:(fun () -> ());
  ignore (Engine.run eng);
  check_int "counting resumes after reset" 1 (Noc.stats noc).Noc.packets;
  check_int "pre-reset snapshot still kept" 1 n1.Noc.packets

let test_controller_nic_snapshots () =
  let sys = System.create ~variant:System.M3v () in
  let net = Services.make_net sys ~host:Nic.Sink () in
  let cb = ref None in
  let aid, env =
    System.spawn sys ~tile:2 ~name:"sender" (fun env ->
        let* _ = A.syscall env Proto.Noop in
        let udp = M3v_os.Net_client.to_udp (Option.get !cb) in
        let* sock = udp.M3v_os.Net_client.u_socket () in
        Proc.repeat 5 (fun _ ->
            udp.M3v_os.Net_client.u_sendto sock (1, 9000) (Bytes.make 64 'x')))
  in
  cb := Some (net.Services.net_connect aid env);
  let c0 = Controller.stats (System.controller sys) in
  let x0 = Nic.stats net.Services.nic in
  let syscalls0 = c0.Controller.syscalls and tx0 = x0.Nic.tx in
  System.boot sys;
  ignore (System.run sys);
  let c1 = Controller.stats (System.controller sys) in
  let x1 = Nic.stats net.Services.nic in
  check_bool "controller counted more syscalls" true
    (c1.Controller.syscalls > syscalls0);
  check_int "nic counted the frames" (tx0 + 5) x1.Nic.tx;
  check_int "controller snapshot kept" syscalls0 c0.Controller.syscalls;
  check_int "nic snapshot kept" tx0 x0.Nic.tx

(* --- allocation on the event path --- *)

let minor_words_per_call n f =
  f ();
  let before = Gc.minor_words () in
  for _ = 1 to n do
    f ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

let test_counter_bumps_do_not_allocate () =
  let eng = Engine.create () in
  let noc = Noc.create eng (Topology.star_mesh_2x2 ~tiles:2) in
  let dtu = Dtu.create ~virtualized:true ~tile:0 eng noc in
  Dtu.ext_config dtu ~ep:1 ~owner:7 (Ep.recv_config ~slots:4 ~slot_size:256 ());
  ignore (Dtu.switch_act dtu ~next:7);
  let fetch () =
    match Dtu.fetch dtu ~ep:1 with
    | Ok None -> ()
    | _ -> Alcotest.fail "expected an empty owned receive endpoint"
  in
  let words = minor_words_per_call 10_000 fetch in
  check_bool (Printf.sprintf "Dtu.fetch: %.2f words/call < 1" words) true
    (words < 1.0);
  check_int "fetches counted" 10_001 (Dtu.stats dtu).Dtu.fetches;
  let c = Stats.Counter.create () in
  let add () = Stats.Counter.add c "bucket/user" 1.0 in
  let words = minor_words_per_call 10_000 add in
  check_bool
    (Printf.sprintf "Stats.Counter.add: %.2f words/call < 1" words)
    true (words < 1.0);
  Alcotest.(check (float 0.0)) "counter sum" 10_001.0
    (Stats.Counter.get c "bucket/user");
  (* A resolved cell hashes nothing per bump, and its bumps read through
     [get] like the keyed ones.  The value is computed at run time, as a
     TileMux time charge is: a float argument would be boxed per call. *)
  let cell = Stats.Counter.cell c "bucket/user" in
  let bump () = Stats.Counter.bump cell (Sys.opaque_identity 1) in
  let words = minor_words_per_call 10_000 bump in
  check_bool
    (Printf.sprintf "Stats.Counter.bump: %.2f words/call = 0" words)
    true (words = 0.0);
  Alcotest.(check (float 0.0)) "bumps read through get" 20_002.0
    (Stats.Counter.get c "bucket/user");
  Alcotest.(check (float 0.0)) "a fresh cell reads as a missing key" 0.0
    (ignore (Stats.Counter.cell c "bucket/idle");
     Stats.Counter.get c "bucket/idle")

(* A push/pop cycle at constant depth reuses the slot it frees, with
   boxed payloads: nothing at depth 8, where the queue is sorted, nor at
   depth 1,000, where it is a heap. *)
let test_queue_cycle_does_not_allocate () =
  let x = Bytes.make 8 'x' and y = ref 0 in
  List.iter
    (fun depth ->
      let q = Event_queue.create2 ~capacity:depth () in
      for i = 1 to depth do
        Event_queue.push2 q ~time:((i * 7919) land 0xFFFF) x y
      done;
      let i = ref 0 in
      let cycle () =
        let t = Event_queue.next_time q in
        Event_queue.drop_min q;
        incr i;
        Event_queue.push2 q ~time:(t + 1 + ((!i * 7919) land 0xFFFF)) x y
      in
      let words = minor_words_per_call 10_000 cycle in
      check_bool
        (Printf.sprintf "push/pop cycle at depth %d: %.2f words = 0" depth words)
        true (words = 0.0);
      check_int "depth kept" depth (Event_queue.length q))
    [ 8; 1000 ]

(* A SEND stalled for credits is retried by a loop of queued steps
   ([Dtu.spin_send] on [Engine.spin]): each poll checks the endpoint and
   bumps counters, and neither it nor the failed completion after it
   allocates.  Retried through [Engine.after] instead, the loop allocates
   about 4.5 words per event. *)
let test_parked_polls_do_not_allocate () =
  let eng = Engine.create () in
  let noc = Noc.create eng (Topology.star_mesh_2x2 ~tiles:2) in
  let dtu = Dtu.create ~virtualized:true ~tile:0 eng noc in
  Dtu.ext_config dtu ~ep:1 ~owner:7
    (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~max_msg_size:64 ~credits:1 ());
  (match (Dtu.ext_read_ep dtu ~ep:1).Ep.cfg with
  | Ep.Send s -> s.Ep.credits <- 0
  | Ep.Invalid | Ep.Recv _ | Ep.Mem _ -> Alcotest.fail "expected a send endpoint");
  ignore (Dtu.switch_act dtu ~next:7);
  Dtu.spin_send dtu ~ep:1 ~msg_size:16 M3v_dtu.Msg.Empty ~poll_ps:(Time.us 2)
    ~on_poll:ignore ~on_settle:ignore ~k:(fun _ ->
      Alcotest.fail "no credit ever comes back");
  (* Warm up: the first poll and its completion. *)
  check_int "warm-up steps" 2 (Engine.run ~max_events:2 eng);
  let before = Gc.minor_words () in
  let steps = Engine.run ~max_events:20_000 eng in
  let words = (Gc.minor_words () -. before) /. float_of_int steps in
  check_int "10,000 polls and completions" 20_000 steps;
  check_bool
    (Printf.sprintf "retry step: %.4f words < 0.01" words)
    true (words < 0.01);
  check_int "one retry step pending" 1 (Engine.pending eng);
  let st = Dtu.stats dtu in
  check_int "each poll counted a send" 10_001 st.Dtu.sends;
  check_int "and a credit stall" 10_001 st.Dtu.credit_stalls

(* An M3x switch moves endpoint records out of the register file and back
   instead of copying them: taking and putting back a receive and a send
   endpoint allocates only the two fresh Invalid records left in the
   slots. *)
let test_take_put_moves_endpoints () =
  let eng = Engine.create () in
  let noc = Noc.create eng (Topology.star_mesh_2x2 ~tiles:2) in
  let dtu = Dtu.create ~virtualized:true ~tile:0 eng noc in
  Dtu.ext_config dtu ~ep:1 ~owner:7 (Ep.recv_config ~slots:4 ~slot_size:256 ());
  Dtu.ext_config dtu ~ep:2 ~owner:7
    (Ep.send_config ~dst_tile:1 ~dst_ep:1 ~max_msg_size:240 ~credits:4 ());
  let switch () =
    let r = Dtu.ext_take dtu ~ep:1 in
    let s = Dtu.ext_take dtu ~ep:2 in
    Dtu.ext_put dtu ~ep:1 r;
    Dtu.ext_put dtu ~ep:2 s
  in
  let words = minor_words_per_call 10_000 switch in
  check_bool
    (Printf.sprintf "take+put of a recv and a send endpoint: %.1f words < 16"
       words)
    true (words < 16.0);
  match (Dtu.ext_read_ep dtu ~ep:2).Ep.cfg with
  | Ep.Send s -> check_int "credits kept across moves" 4 s.Ep.credits
  | _ -> Alcotest.fail "send endpoint lost across moves"

(* --- disabled emitters --- *)

(* With no sink, registry or plan installed, every tracepoint, metric
   emitter and fault hook returns before it builds anything.  The
   arguments are run-time values, as at the call sites: an optional
   argument passed through a partial application or forwarded to another
   function is boxed per call. *)
let test_disabled_emitters_do_not_allocate () =
  let module Trace = M3v_obs.Trace in
  let module Metrics = M3v_obs.Metrics in
  let module Fault = M3v_fault.Fault in
  let tile = Sys.opaque_identity 1 and act = Sys.opaque_identity 2 in
  let ts = Sys.opaque_identity 3 and v = Sys.opaque_identity 1.5 in
  List.iter
    (fun (name, f) ->
      let words = minor_words_per_call 10_000 f in
      check_bool (Printf.sprintf "%s: %.2f words/call < 1" name words) true
        (words < 1.0))
    [
      ("Trace.on", fun () -> ignore (Trace.on ()));
      ("Metrics.on", fun () -> ignore (Metrics.on ()));
      ("Fault.on", fun () -> ignore (Fault.on ()));
      ( "Trace.complete",
        fun () -> Trace.complete ~cat:"c" ~name:"n" ~tile ~act ~ts ~dur:ts () );
      ( "Trace.instant",
        fun () -> Trace.instant ~cat:"c" ~name:"n" ~tile ~ts () );
      ( "Trace.counter",
        fun () -> Trace.counter ~cat:"c" ~name:"n" ~tile ~ts ~value:v () );
      ( "Trace.flow_start",
        fun () -> Trace.flow_start ~cat:"f" ~name:"m" ~id:1 ~tile ~act ~ts () );
      ( "Trace.flow_step",
        fun () -> Trace.flow_step ~cat:"f" ~name:"m" ~id:1 ~tile ~act ~ts () );
      ( "Trace.flow_end",
        fun () -> Trace.flow_end ~cat:"f" ~name:"m" ~id:1 ~tile ~act ~ts () );
      ("Trace.latency_int", fun () -> Trace.latency_int "h" ts);
      ( "Metrics.counter_add",
        fun () -> Metrics.counter_add ~name:"n" ~tile v );
      ( "Metrics.counter_incr",
        fun () -> Metrics.counter_incr ~name:"n" ~tile () );
      ( "Metrics.gauge_set",
        fun () -> Metrics.gauge_set ~name:"n" ~act ~ts v );
      ( "Metrics.observe",
        fun () -> Metrics.observe ~name:"n" ~tile ~cat:"c" v );
      ( "Fault.noc_fate",
        fun () -> ignore (Fault.noc_fate ~now:ts ~src:tile ~dst:act) );
      ("Fault.cmd_fails", fun () -> ignore (Fault.cmd_fails ~now:ts ~tile));
      ( "Fault.act_fate",
        fun () -> ignore (Fault.act_fate ~now:ts ~tile ~act) );
      ( "Fault.mig_fate",
        fun () -> ignore (Fault.mig_fate ~now:ts ~tile ~act ~phase:"p") );
    ]

(* --- DRAM pages --- *)

(* Words taken from the major heap so far.  Not [Gc.quick_stat]: it sees
   a direct major-heap allocation only after the next minor collection,
   where [Gc.counters] counts it at once. *)
let major_words () =
  let _, _, major = Gc.counters () in
  major

(* Configuring a memory endpoint backs its window, so the first write
   through it finds its page and takes nothing from the major heap, and
   page-sized accesses allocate nothing at all. *)
let test_mem_endpoint_backs_its_window () =
  let eng = Engine.create () in
  let noc = Noc.create eng (Topology.star_mesh_2x2 ~tiles:2) in
  let dtu = Dtu.create ~virtualized:true ~tile:0 eng noc in
  let page = M3v_dtu.Dtu_types.page_size in
  let dram = Dram.create ~size:(64 * page) () in
  Dtu.connect dtu ~lookup_dtu:(fun _ -> None) ~lookup_mem:(function
    | 1 -> Some dram
    | _ -> None);
  Dtu.ext_config dtu ~ep:1 ~owner:7
    (Ep.mem_config ~mem_tile:1 ~base:(8 * page) ~size:(16 * page)
       ~perm:M3v_dtu.Dtu_types.RW);
  let buf = Bytes.make page 'p' in
  (* An empty minor heap: no promotion falls inside the measurement. *)
  Gc.minor ();
  let before = major_words () in
  Dram.write dram ~off:(20 * page) ~src:buf ~src_off:0 ~len:page;
  let words = major_words () -. before in
  check_bool
    (Printf.sprintf "first 4 KiB write in the window: %.0f major words < 64" words)
    true (words < 64.0);
  let i = ref 0 in
  let next_off () =
    i := (!i + 1) mod 16;
    (8 + !i) * page
  in
  let words =
    minor_words_per_call 10_000 (fun () ->
        Dram.read_into dram ~off:(next_off ()) ~dst:buf ~dst_off:0 ~len:page)
  in
  check_bool (Printf.sprintf "Dram.read_into: %.2f words/call < 1" words) true
    (words < 1.0);
  let words =
    minor_words_per_call 10_000 (fun () ->
        Dram.write dram ~off:(next_off ()) ~src:buf ~src_off:0 ~len:page)
  in
  check_bool (Printf.sprintf "Dram.write: %.2f words/call < 1" words) true
    (words < 1.0)

(* --- LSM store compaction --- *)

(* An in-memory file system on one preallocated arena of [slots] extents:
   each file opened for writing gets a fresh [slot]-byte extent, so
   neither reads nor writes allocate and a measurement sees the store's
   own words. *)
let arena_vfs ~slot ~slots ~on_open_rdonly =
  let arena = Bytes.create (slot * slots) and next = ref 0 in
  let files = Hashtbl.create 16 and fds = Hashtbl.create 16 and fd_seq = ref 0 in
  let file fd = Hashtbl.find fds fd in
  {
    M3v_os.Vfs.open_ =
      (fun path flags ->
        let f =
          if flags.M3v_os.Fs_proto.fl_write then begin
            if !next = slots then failwith "arena full";
            let f = (!next * slot, ref 0) in
            incr next;
            Hashtbl.replace files path f;
            Some f
          end
          else Hashtbl.find_opt files path
        in
        match f with
        | None -> Proc.return (Error "no such file")
        | Some f ->
            if not flags.M3v_os.Fs_proto.fl_write then on_open_rdonly !(snd f);
            incr fd_seq;
            Hashtbl.replace fds !fd_seq (f, ref 0);
            Proc.return (Ok !fd_seq));
    read =
      (fun fd buf n ->
        let (base, len), pos = file fd in
        let got = max 0 (min n (!len - !pos)) in
        Bytes.blit arena (base + !pos) buf.M3v_mux.Act_ops.data 0 got;
        pos := !pos + got;
        Proc.return got);
    write =
      (fun fd buf n ->
        let (base, len), pos = file fd in
        if !pos + n > slot then failwith "file larger than its slot";
        Bytes.blit buf.M3v_mux.Act_ops.data 0 arena (base + !pos) n;
        pos := !pos + n;
        len := max !len !pos;
        Proc.return n);
    seek = (fun fd off -> Proc.return (snd (file fd) := off));
    close = (fun fd -> Proc.return (Hashtbl.remove fds fd));
    stat = (fun _ -> Proc.return (Error "unsupported"));
    readdir = (fun _ -> Proc.return (Error "unsupported"));
    mkdir = (fun _ -> Proc.return (Ok ()));
    unlink = (fun path -> Proc.return (Ok (Hashtbl.remove files path)));
  }

(* Run an activity's process on the host, answering the two runtime
   requests the store makes besides its file calls. *)
let rec drive = function
  | Proc.Finished -> ()
  | Proc.Request (M3v_mux.Act_ops.Op_compute _, k) -> drive (k Proc.Unit)
  | Proc.Request (M3v_mux.Act_ops.Op_alloc_buf _, k) ->
      drive (k (M3v_mux.Act_ops.R_vaddr 0))
  | Proc.Request _ -> Alcotest.fail "unexpected runtime request"

(* A compaction rewrites the entries it reads back without decoding them
   into a map and re-encoding the result: one compaction of five tables
   takes fewer than twice their bytes from the major heap. *)
let test_compaction_major_words () =
  let table_bytes = ref 0 and start = ref None in
  let on_open_rdonly len =
    (* Only compaction opens files for reading here; its first open
       starts the measurement on an empty minor heap. *)
    if !start = None then begin
      Gc.minor ();
      start := Some (major_words ())
    end;
    table_bytes := !table_bytes + len
  in
  let vfs = arena_vfs ~slot:(512 * 1024) ~slots:16 ~on_open_rdonly in
  let words = ref 0.0 and compactions = ref 0 in
  drive
    (Proc.run
       (let* store = Kvstore.create ~vfs ~dir:"/kv" () in
        let store = Result.get_ok store in
        (* 1 KiB values, as in YCSB: 17 puts fill the default memtable, and
           the fifth table's flush, in the last put, compacts. *)
        let* () =
          Proc.repeat 85 (fun i ->
              Kvstore.put store ~key:(Printf.sprintf "key%05d" i)
                ~value:(Bytes.make 1000 (Char.chr (97 + (i mod 26)))))
        in
        words := major_words () -. Option.get !start;
        compactions := Kvstore.compactions store;
        Proc.return ()));
  check_int "one compaction" 1 !compactions;
  let limit = 2.0 *. float_of_int !table_bytes /. 8.0 in
  check_bool
    (Printf.sprintf "compacting %d table bytes: %.0f major words < %.0f" !table_bytes
       !words limit)
    true (!words < limit)

(* --- route table --- *)

(* Reference routing, independent of [Topology]'s BFS: from router [r]
   toward [d], step to the lowest-numbered neighbour one hop closer. *)
let reference_route ~routers ~undirected_edges ~src ~dst =
  let inf = max_int / 2 in
  let dist = Array.make_matrix routers routers inf in
  for r = 0 to routers - 1 do
    dist.(r).(r) <- 0
  done;
  List.iter
    (fun (a, b) ->
      dist.(a).(b) <- 1;
      dist.(b).(a) <- 1)
    undirected_edges;
  for k = 0 to routers - 1 do
    for i = 0 to routers - 1 do
      for j = 0 to routers - 1 do
        if dist.(i).(k) + dist.(k).(j) < dist.(i).(j) then
          dist.(i).(j) <- dist.(i).(k) + dist.(k).(j)
      done
    done
  done;
  let next r d =
    let rec first n =
      if dist.(r).(n) = 1 && dist.(n).(d) = dist.(r).(d) - 1 then n
      else first (n + 1)
    in
    first 0
  in
  let r_src = src mod routers and r_dst = dst mod routers in
  let rec walk r =
    if r = r_dst then []
    else
      let n = next r r_dst in
      Printf.sprintf "r%d->r%d" r n :: walk n
  in
  if src = dst then []
  else
    (Printf.sprintf "tile%d->noc" src :: walk r_src)
    @ [ Printf.sprintf "noc->tile%d" dst ]

let mesh_edges ~cols ~rows =
  let id c r = (r * cols) + c in
  List.concat
    (List.init rows (fun r ->
         List.concat
           (List.init cols (fun c ->
                (if c + 1 < cols then [ (id c r, id (c + 1) r) ] else [])
                @ if r + 1 < rows then [ (id c r, id c (r + 1)) ] else []))))

let check_routes name topo ~routers ~undirected_edges =
  let tiles = Topology.tiles topo in
  for src = 0 to tiles - 1 do
    for dst = 0 to tiles - 1 do
      let route = Topology.route topo ~src ~dst in
      let expect = reference_route ~routers ~undirected_edges ~src ~dst in
      let label = Printf.sprintf "%s %d->%d" name src dst in
      Alcotest.(check (list string))
        label expect
        (List.map (Topology.link_name topo) route);
      Alcotest.(check (array int))
        (label ^ " links") (Array.of_list route)
        (Topology.route_links topo ~src ~dst);
      check_int (label ^ " hops")
        (max 0 (List.length route - 2))
        (Topology.hops topo ~src ~dst)
    done
  done

let test_route_table () =
  check_routes "star_mesh_2x2"
    (Topology.star_mesh_2x2 ~tiles:9)
    ~routers:4
    ~undirected_edges:[ (0, 1); (1, 3); (3, 2); (2, 0) ];
  check_routes "mesh 4x3"
    (Topology.mesh ~cols:4 ~rows:3 ~tiles:14)
    ~routers:12
    ~undirected_edges:(mesh_edges ~cols:4 ~rows:3);
  check_routes "ring 4"
    (Topology.ring ~routers:4 ~tiles:7)
    ~routers:4
    ~undirected_edges:(List.init 4 (fun i -> (i, (i + 1) mod 4)));
  check_routes "single_router"
    (Topology.single_router ~tiles:5)
    ~routers:1 ~undirected_edges:[]

let suite =
  [
    ("dtu/noc/dram stats are snapshots", `Quick, test_dtu_noc_dram_snapshots);
    ("controller/nic stats are snapshots", `Quick, test_controller_nic_snapshots);
    ("counter bumps do not allocate", `Quick, test_counter_bumps_do_not_allocate);
    ("queue push/pop cycle does not allocate", `Quick, test_queue_cycle_does_not_allocate);
    ("parked polls do not allocate", `Quick, test_parked_polls_do_not_allocate);
    ("disabled emitters do not allocate", `Quick, test_disabled_emitters_do_not_allocate);
    ("take+put moves endpoints", `Quick, test_take_put_moves_endpoints);
    ("memory endpoint backs its window", `Quick, test_mem_endpoint_backs_its_window);
    ("compaction major words", `Quick, test_compaction_major_words);
    ("route table matches next-hop walk", `Quick, test_route_table);
  ]
