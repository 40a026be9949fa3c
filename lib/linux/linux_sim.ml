module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Proc = M3v_sim.Proc
module Core_model = M3v_tile.Core_model
module Fs_core = M3v_os.Fs_core
module Fs_proto = M3v_os.Fs_proto
module Net_proto = M3v_os.Net_proto
open M3v_mux.Act_ops
open Lx_ops

type pid = int

(* --- calibration constants (cycles on the Linux core) --- *)
let syscall_cycles = 950
let yield_extra_cycles = 1_450 (* scheduler + context switch on top of entry *)
let fd_lookup_cycles = 260
let path_lookup_cycles = 420
let tmpfs_page_cycles = 800 (* page-cache walk + accounting per touched page *)
let tmpfs_alloc_page_cycles = 2_000 (* allocation + zeroing bookkeeping per new page *)
let udp_tx_cycles = 10_000
let udp_rx_cycles = 11_500
let nic_driver_cycles = 2_600
let minor_fault_cycles = 1_400

(* Linux's large kernel code footprint evicts the application's state from
   the small (16 kB) L1 instruction cache on every system call (paper,
   6.5.2).  The refill penalty only materializes when the application has
   run long enough between kernel entries to fault the kernel's code out
   again — a tight syscall loop (Figure 6) stays warm. *)
let icache_refill_cycles = 3_200

type pstate = Ready | Running | Blocked_net | Dead

type proc_rec = {
  pid : pid;
  program : unit Proc.t;
  mutable st : pstate;
  mutable resume : (unit -> unit) option;
  mutable slice_left : Time.t;
  mutable user_ps : int;
  mutable sys_ps : int;
  mutable started : bool;
}

type fd_state = { f_ino : Fs_core.ino; mutable f_pos : int; f_writable : bool }

type sock_state = {
  mutable sk_port : int;
  sk_queue : Net_proto.packet Queue.t;
  mutable sk_waiting : (pid * (Proc.resp -> unit)) option;
}

type t = {
  engine : Engine.t;
  core : Core_model.t;
  timeslice : Time.t;
  mutable user_since_syscall : int;  (** cycles of user work since kernel entry *)
  fs : Fs_core.t;
  store : bytes;
  procs : (pid, proc_rec) Hashtbl.t;
  mutable next_pid : pid;
  runq : pid Queue.t;
  mutable current : pid option;
  mutable dispatch_pending : bool;
  fds : (int, fd_state) Hashtbl.t;
  mutable next_fd : int;
  socks : (int, sock_state) Hashtbl.t;
  mutable next_sock : int;
  mutable lnic : M3v_os.Nic.t option;
}

let create ?(core = Core_model.boom) ?(tmpfs_blocks = 16384)
    ?(timeslice = Time.ms 1) engine () =
  {
    engine;
    core;
    timeslice;
    user_since_syscall = 0;
    fs = Fs_core.create ~blocks:tmpfs_blocks ();
    store = Bytes.make (tmpfs_blocks * Fs_core.block_size) '\000';
    procs = Hashtbl.create 8;
    next_pid = 1;
    runq = Queue.create ();
    current = None;
    dispatch_pending = false;
    fds = Hashtbl.create 16;
    next_fd = 3;
    socks = Hashtbl.create 8;
    next_sock = 1;
    lnic = None;
  }

let tmpfs t = t.fs
let nic t = t.lnic

let find t pid =
  match Hashtbl.find_opt t.procs pid with
  | Some p -> p
  | None -> invalid_arg (Printf.sprintf "Linux_sim: unknown pid %d" pid)

let finished t pid = (find t pid).st = Dead
let all_finished t = Hashtbl.fold (fun _ p acc -> acc && p.st = Dead) t.procs true
let rusage t pid =
  let p = find t pid in
  (p.user_ps, p.sys_ps)

(* Copy between file [ino]'s bytes [off, off + len) and [data] from its
   start: into the file if [into_file], out of it otherwise.  Returns the
   bytes copied, clipped to the file size. *)
let tmpfs_copy t ino ~off ~len ~into_file data =
  List.fold_left
    (fun n (region_off, pos, l) ->
      if into_file then Bytes.blit data pos t.store region_off l
      else Bytes.blit t.store region_off data pos l;
      n + l)
    0
    (Fs_core.segments t.fs ino ~off ~len)

type bucket = User | Sys

let charge t (p : proc_rec) bucket cycles k =
  if cycles <= 0 then k ()
  else begin
    (* Track instruction-cache pressure: user work cools the kernel's
       footprint; a kernel entry after a long user phase pays a refill. *)
    let cycles =
      match bucket with
      | User ->
          t.user_since_syscall <- t.user_since_syscall + cycles;
          cycles
      | Sys ->
          let penalty =
            min icache_refill_cycles (t.user_since_syscall / 16)
          in
          t.user_since_syscall <- 0;
          cycles + penalty
    in
    let d = Core_model.cycles t.core cycles in
    (match bucket with
    | User -> p.user_ps <- p.user_ps + d
    | Sys -> p.sys_ps <- p.sys_ps + d);
    Engine.after t.engine ~delay:d k
  end

(* --- scheduler --- *)

let others_ready t = not (Queue.is_empty t.runq)

let rec schedule_dispatch t =
  if not t.dispatch_pending then begin
    t.dispatch_pending <- true;
    Engine.after t.engine ~delay:0 (fun () ->
        t.dispatch_pending <- false;
        do_dispatch t)
  end

and do_dispatch t =
  if t.current = None then
    match Queue.take_opt t.runq with
    | None -> ()
    | Some pid -> (
        let p = find t pid in
        match p.st with
        | Ready ->
            p.st <- Running;
            t.current <- Some pid;
            (* Scheduler pass + switch charged to system time. *)
            charge t p Sys yield_extra_cycles (fun () ->
                p.slice_left <- t.timeslice;
                resume_proc t p)
        | Running | Blocked_net | Dead -> do_dispatch t)

and resume_proc t p =
  if not p.started then begin
    p.started <- true;
    exec t p (Proc.run p.program)
  end
  else
    match p.resume with
    | Some f ->
        p.resume <- None;
        f ()
    | None -> failwith "Linux_sim: resume without continuation"

and exec t p = function
  | Proc.Finished ->
      p.st <- Dead;
      if t.current = Some p.pid then begin
        t.current <- None;
        schedule_dispatch t
      end
  | Proc.Request (op, k) -> interp t p op (fun resp -> exec t p (k resp))

(* --- the interpreter --- *)

and interp t (p : proc_rec) op (k : Proc.resp -> unit) =
  match op with
  | Op_compute cycles -> compute_chunks t p cycles k
  | Op_memcpy bytes -> compute_chunks t p (Core_model.memcpy_cycles t.core bytes) k
  | Op_now -> charge t p User 6 (fun () -> k (R_time (Engine.now t.engine)))
  | Op_log _ | Op_acct _ -> k Proc.Unit
  | Op_alloc_buf size ->
      (* Anonymous mmap: minor faults on first touch folded in here. *)
      let pages = (size + 4095) / 4096 in
      charge t p Sys (200 + (pages * minor_fault_cycles / 4)) (fun () ->
          k (R_vaddr (0x4000_0000 + (p.pid * 0x100_0000))))
  | Op_touch { t_len; _ } ->
      charge t p User (2 * ((t_len + 4095) / 4096)) (fun () -> k Proc.Unit)
  | Op_yield | Lx_yield ->
      (* Entry only; the scheduler pass + switch is charged in dispatch. *)
      charge t p Sys syscall_cycles (fun () ->
          if others_ready t then begin
            p.st <- Ready;
            p.resume <- Some (fun () -> k Proc.Unit);
            Queue.add p.pid t.runq;
            t.current <- None;
            schedule_dispatch t
          end
          else k Proc.Unit)
  | Lx_noop_syscall -> charge t p Sys syscall_cycles (fun () -> k Proc.Unit)
  | Lx_open { o_path; o_flags = { Fs_proto.fl_write; fl_create; fl_trunc } } ->
      charge t p Sys (syscall_cycles + path_lookup_cycles) (fun () ->
          match Fs_core.open_file t.fs o_path ~create:fl_create ~trunc:fl_trunc with
          | Error e -> k (L_result (Error e))
          | Ok f_ino ->
              let fd = t.next_fd in
              t.next_fd <- fd + 1;
              Hashtbl.replace t.fds fd { f_ino; f_pos = 0; f_writable = fl_write };
              k (L_result (Ok fd)))
  | Lx_read { r_fd; r_buf; r_len } -> (
      match Hashtbl.find_opt t.fds r_fd with
      | None -> k (L_int 0)
      | Some fd ->
          let size = Fs_core.size t.fs fd.f_ino in
          let len = max 0 (min r_len (size - fd.f_pos)) in
          let pages = (len + 4095) / 4096 in
          let cost =
            syscall_cycles + fd_lookup_cycles + (pages * tmpfs_page_cycles)
            + Core_model.memcpy_cycles t.core len
          in
          charge t p Sys cost (fun () ->
              let n =
                tmpfs_copy t fd.f_ino ~off:fd.f_pos ~len ~into_file:false r_buf.data
              in
              fd.f_pos <- fd.f_pos + n;
              k (L_int n)))
  | Lx_write { w_fd; w_buf; w_len } -> (
      match Hashtbl.find_opt t.fds w_fd with
      | Some fd when fd.f_writable ->
          let fresh = Fs_core.ensure_range t.fs fd.f_ino ~off:fd.f_pos ~len:w_len in
          let allocated =
            List.fold_left (fun acc e -> acc + e.Fs_core.e_blocks) 0 fresh
          in
          Fs_core.set_size t.fs fd.f_ino (fd.f_pos + w_len);
          let pages = (w_len + 4095) / 4096 in
          (* Allocation + clearing of fresh pages + the user copy. *)
          let cost =
            syscall_cycles + fd_lookup_cycles + (pages * tmpfs_page_cycles)
            + (allocated * (tmpfs_alloc_page_cycles + Core_model.memcpy_cycles t.core 4096))
            + Core_model.memcpy_cycles t.core w_len
          in
          charge t p Sys cost (fun () ->
              let n =
                tmpfs_copy t fd.f_ino ~off:fd.f_pos ~len:w_len ~into_file:true w_buf.data
              in
              fd.f_pos <- fd.f_pos + n;
              k (L_int n))
      | Some _ | None -> k (L_int 0))
  | Lx_seek { s_fd; s_pos } ->
      charge t p Sys (syscall_cycles / 2) (fun () ->
          (match Hashtbl.find_opt t.fds s_fd with
          | Some fd -> fd.f_pos <- s_pos
          | None -> ());
          k Proc.Unit)
  | Lx_close fd ->
      charge t p Sys (syscall_cycles / 2) (fun () ->
          Hashtbl.remove t.fds fd;
          k Proc.Unit)
  | Lx_stat path ->
      charge t p Sys (syscall_cycles + path_lookup_cycles) (fun () ->
          k (L_stat (Result.map Fs_proto.stat_rep (Fs_core.stat t.fs path))))
  | Lx_readdir path ->
      charge t p Sys (syscall_cycles + path_lookup_cycles + 300) (fun () ->
          k (L_names (Fs_core.readdir t.fs path)))
  | Lx_mkdir path ->
      charge t p Sys (syscall_cycles + path_lookup_cycles) (fun () ->
          match Fs_core.mkdir t.fs path with
          | Ok _ -> k (L_unit_result (Ok ()))
          | Error e -> k (L_unit_result (Error e)))
  | Lx_unlink path ->
      charge t p Sys (syscall_cycles + path_lookup_cycles) (fun () ->
          k (L_unit_result (Fs_core.unlink t.fs path)))
  | Lx_socket ->
      charge t p Sys (syscall_cycles + 400) (fun () ->
          let id = t.next_sock in
          t.next_sock <- id + 1;
          Hashtbl.replace t.socks id
            { sk_port = 40_000 + id; sk_queue = Queue.create (); sk_waiting = None };
          k (L_int id))
  | Lx_bind { b_sock; b_port } ->
      charge t p Sys (syscall_cycles + 200) (fun () ->
          (match Hashtbl.find_opt t.socks b_sock with
          | Some s -> s.sk_port <- b_port
          | None -> ());
          k Proc.Unit)
  | Lx_sendto { sd_sock; sd_dst; sd_data } -> (
      match Hashtbl.find_opt t.socks sd_sock with
      | None -> k Proc.Unit
      | Some s ->
          let cost =
            syscall_cycles + udp_tx_cycles + nic_driver_cycles
            + Core_model.memcpy_cycles t.core (Bytes.length sd_data)
          in
          charge t p Sys cost (fun () ->
              (match t.lnic with
              | Some nic ->
                  M3v_os.Nic.transmit nic
                    { Net_proto.src = (0, s.sk_port); dst = sd_dst;
                      payload = Bytes.copy sd_data }
              | None -> ());
              k Proc.Unit))
  | Lx_recvfrom { rc_sock } -> (
      match Hashtbl.find_opt t.socks rc_sock with
      | None -> k (L_pkt ((0, 0), Bytes.empty))
      | Some s -> (
          let deliver (pkt : Net_proto.packet) =
            (* Interrupt + stack processing + copy to user. *)
            let cost =
              syscall_cycles + udp_rx_cycles + nic_driver_cycles
              + Core_model.memcpy_cycles t.core (Bytes.length pkt.Net_proto.payload)
            in
            charge t p Sys cost (fun () ->
                k (L_pkt (pkt.Net_proto.src, pkt.Net_proto.payload)))
          in
          match Queue.take_opt s.sk_queue with
          | Some pkt -> deliver pkt
          | None ->
              charge t p Sys syscall_cycles (fun () ->
                  p.st <- Blocked_net;
                  s.sk_waiting <-
                    Some (p.pid, fun resp -> k resp);
                  p.resume <- None;
                  t.current <- None;
                  schedule_dispatch t)))
  | Lx_sock_close sock ->
      charge t p Sys (syscall_cycles / 2) (fun () ->
          Hashtbl.remove t.socks sock;
          k Proc.Unit)
  | _ -> failwith "Linux_sim: unsupported operation for a Linux process"

and compute_chunks t (p : proc_rec) cycles k =
  if cycles <= 0 then k Proc.Unit
  else begin
    let slice_cycles =
      max 1 (Time.to_cycles ~ps_per_cycle:t.core.Core_model.ps_per_cycle p.slice_left)
    in
    let run = min cycles slice_cycles in
    charge t p User run (fun () ->
        p.slice_left <- Time.sub p.slice_left (Core_model.cycles t.core run);
        let rest = cycles - run in
        if p.slice_left <= 0 && others_ready t then begin
          charge t p Sys yield_extra_cycles (fun () ->
              p.st <- Ready;
              p.resume <- Some (fun () -> compute_chunks t p rest k);
              Queue.add p.pid t.runq;
              t.current <- None;
              schedule_dispatch t)
        end
        else begin
          if p.slice_left <= 0 then p.slice_left <- t.timeslice;
          compute_chunks t p rest k
        end)
  end

(* --- NIC reception (in-kernel) --- *)

let on_nic_rx t (pkt : Net_proto.packet) =
  let target =
    Hashtbl.fold
      (fun _ s acc -> if s.sk_port = snd pkt.Net_proto.dst then Some s else acc)
      t.socks None
  in
  match target with
  | None -> ()
  | Some s -> (
      match s.sk_waiting with
      | Some (pid, fill) ->
          s.sk_waiting <- None;
          let p = find t pid in
          p.st <- Ready;
          p.resume <-
            Some
              (fun () ->
                let cost =
                  udp_rx_cycles + nic_driver_cycles
                  + Core_model.memcpy_cycles t.core
                      (Bytes.length pkt.Net_proto.payload)
                in
                charge t p Sys cost (fun () ->
                    fill (L_pkt (pkt.Net_proto.src, pkt.Net_proto.payload))));
          Queue.add pid t.runq;
          schedule_dispatch t
      | None -> Queue.add pkt s.sk_queue)

let attach_nic t nic =
  t.lnic <- Some nic;
  M3v_os.Nic.set_rx_handler nic (fun pkt -> on_nic_rx t pkt)

let spawn t ~name:_ program =
  let pid = t.next_pid in
  t.next_pid <- pid + 1;
  Hashtbl.replace t.procs pid
    {
      pid;
      program;
      st = Ready;
      resume = None;
      slice_left = t.timeslice;
      user_ps = 0;
      sys_ps = 0;
      started = false;
    };
  pid

let boot t =
  Hashtbl.iter (fun pid p -> if p.st = Ready then Queue.add pid t.runq) t.procs;
  (* Stable start order. *)
  let pids = List.of_seq (Queue.to_seq t.runq) |> List.sort compare in
  Queue.clear t.runq;
  List.iter (fun pid -> Queue.add pid t.runq) pids;
  schedule_dispatch t

let preload_file t ~path data =
  match Fs_core.create_file t.fs path with
  | Error e -> invalid_arg ("Linux_sim.preload_file: " ^ e)
  | Ok ino ->
      let len = Bytes.length data in
      if len > 0 then ignore (Fs_core.ensure_range t.fs ino ~off:0 ~len);
      Fs_core.set_size t.fs ino len;
      ignore (tmpfs_copy t ino ~off:0 ~len ~into_file:true data)

let peek_file t ~path =
  Option.map
    (fun ino ->
      let out = Bytes.create (Fs_core.size t.fs ino) in
      ignore (tmpfs_copy t ino ~off:0 ~len:(Bytes.length out) ~into_file:false out);
      out)
    (Fs_core.lookup t.fs path)
