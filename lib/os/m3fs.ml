open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module A = M3v_mux.Act_api
module Proto = M3v_kernel.Protocol
module Msg = M3v_dtu.Msg
open Fs_proto

type stats = {
  mutable ops : int;
  mutable extents_granted : int;
  mutable blocks_cleared : int;
}

type handle = {
  fs : Fs_core.t;
  fds : (int, Fs_core.ino) Hashtbl.t;
  mutable next_fd : int;
  stats : stats;
}

let core h = h.fs
let stats h = { h.stats with ops = h.stats.ops }

let make_handle ?max_extent_blocks ~blocks () =
  {
    fs = Fs_core.create ?max_extent_blocks ~blocks ();
    fds = Hashtbl.create 16;
    next_fd = 3;
    stats = { ops = 0; extents_granted = 0; blocks_cleared = 0 };
  }

let op_cycles = 320

(* A page of zeroes used to clear freshly allocated blocks. *)
let zero_page = Bytes.make Fs_core.block_size '\000'

let program h ~rgate ~mem_ep ~region_sel () (env : A.env) =
  (* Clear freshly allocated extents through the service's own memory
     endpoint, one page per DTU command. *)
  let clear_extents extents =
    Proc.iter_list
      (fun (e : Fs_core.extent) ->
        h.stats.blocks_cleared <- h.stats.blocks_cleared + e.Fs_core.e_blocks;
        Proc.repeat e.Fs_core.e_blocks (fun i ->
            A.mem_write ~ep:!mem_ep
              ~off:((e.Fs_core.e_start + i) * Fs_core.block_size)
              ~len:Fs_core.block_size ~src:zero_page ()))
      extents
  in
  (* Derive an extent capability into the requesting client's table. *)
  let grant_extent ~client ~region_off ~len =
    let* rep =
      A.syscall_exn env
        (Proto.Derive_mem_for
           {
             target = client;
             src_sel = !region_sel;
             off = region_off;
             len;
             perm = M3v_dtu.Dtu_types.RW;
           })
    in
    match rep with
    | Proto.Ok_sel sel ->
        h.stats.extents_granted <- h.stats.extents_granted + 1;
        Proc.return sel
    | _ -> failwith "m3fs: extent derivation failed"
  in
  let handle_req (msg : Msg.t) tag req =
    h.stats.ops <- h.stats.ops + 1;
    let reply rep =
      A.reply ~recv_ep:!rgate ~msg ~size:(rep_size rep) (Fs_rep (tag, rep))
    in
    let* () = A.compute op_cycles in
    match req with
    | ( Read_ext { fd; _ }
      | Write_ext { fd; _ }
      | Read_inline { fd; _ }
      | Write_inline { fd; _ } )
      when not (Hashtbl.mem h.fds fd) ->
        reply (R_err "bad fd")
    | Open { path; flags } -> (
        match
          Fs_core.open_file h.fs path ~create:flags.fl_create ~trunc:flags.fl_trunc
        with
        | Error e -> reply (R_err e)
        | Ok ino ->
            let fd = h.next_fd in
            h.next_fd <- fd + 1;
            Hashtbl.replace h.fds fd ino;
            reply (R_fd fd))
    | Read_ext { fd; off } -> (
        match Fs_core.read_extent h.fs (Hashtbl.find h.fds fd) ~off with
        | None -> reply R_eof
        | Some (region_off, win_len, win_file_off) ->
            let* sel =
              grant_extent ~client:msg.Msg.src_act ~region_off ~len:win_len
            in
            reply
              (R_ext { sel; win_off = off - win_file_off; win_len; win_file_off }))
    | Write_ext { fd; off } ->
        let (region_off, win_len, win_file_off), fresh =
          Fs_core.ensure_write_extent h.fs (Hashtbl.find h.fds fd) ~off
        in
        let* () = clear_extents fresh in
        let* sel =
          grant_extent ~client:msg.Msg.src_act ~region_off ~len:win_len
        in
        reply
          (R_ext { sel; win_off = off - win_file_off; win_len; win_file_off })
    | Read_inline { fd; off; len } ->
        let segs =
          Fs_core.segments h.fs (Hashtbl.find h.fds fd) ~off
            ~len:(min len inline_limit)
        in
        let data = Bytes.create (List.fold_left (fun acc (_, _, l) -> acc + l) 0 segs) in
        let* () =
          Proc.iter_list
            (fun (region_off, pos, l) ->
              A.mem_read ~ep:!mem_ep ~off:region_off ~len:l ~dst:data ~dst_off:pos ())
            segs
        in
        reply (R_data data)
    | Write_inline { fd; off; data } ->
        let ino = Hashtbl.find h.fds fd in
        let len = Bytes.length data in
        let* () = clear_extents (Fs_core.ensure_range h.fs ino ~off ~len) in
        Fs_core.set_size h.fs ino (off + len);
        let* () =
          Proc.iter_list
            (fun (region_off, pos, l) ->
              A.mem_write ~ep:!mem_ep ~off:region_off ~len:l ~src:data ~src_off:pos ())
            (Fs_core.segments h.fs ino ~off ~len)
        in
        reply R_ok
    | Close { fd; size } ->
        (match Hashtbl.find_opt h.fds fd with
        | Some ino -> Fs_core.set_size h.fs ino size
        | None -> ());
        Hashtbl.remove h.fds fd;
        reply R_ok
    | Stat { path } ->
        reply
          (match Fs_core.stat h.fs path with
          | Ok st -> stat_rep st
          | Error e -> R_err e)
    | Readdir { path } ->
        reply
          (match Fs_core.readdir h.fs path with
          | Ok names -> R_names names
          | Error e -> R_err e)
    | Mkdir { path } ->
        reply
          (match Fs_core.mkdir h.fs path with Ok _ -> R_ok | Error e -> R_err e)
    | Unlink { path } ->
        reply
          (match Fs_core.unlink h.fs path with Ok () -> R_ok | Error e -> R_err e)
  in
  let rec serve () =
    let* _ep, msg = A.recv ~eps:[ !rgate ] in
    let* () =
      match msg.Msg.data with
      | Fs (tag, req) -> handle_req msg tag req
      | _ -> A.ack ~ep:!rgate msg
    in
    serve ()
  in
  (* File-system time counts as system time (paper, 6.5.2). *)
  let* () = A.acct "sys" in
  serve ()
