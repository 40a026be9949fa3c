open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module A = M3v_mux.Act_api
module Proto = M3v_kernel.Protocol
module Int_table = M3v_sim.Int_table
open Fs_proto

type window = {
  w_file_off : int;  (** file offset of the window start *)
  w_len : int;
  w_writable : bool;
}

type fd_state = {
  mutable pos : int;
  mutable max_written : int;
  writable : bool;
  mutable window : window option;
}

type t = {
  env : A.env;
  sgate : int;
  reply_ep : int;
  data_ep : int;
  fds : fd_state Int_table.t;
  mutable ep_fd : int;  (** which fd's extent the data endpoint holds *)
  mutable switches : int;
  mutable seq : int;  (** request tag counter (stale-reply detection) *)
}

let create ~env ~sgate ~reply_ep ~data_ep =
  {
    env;
    sgate;
    reply_ep;
    data_ep;
    fds = Int_table.create 8;
    ep_fd = -1;
    switches = 0;
    seq = 0;
  }

let extent_switches t = t.switches

let wrap tag req = Fs (tag, req)
let tag_of = function Fs_rep (tag, _) -> tag | _ -> -1
let rep_of = function Fs_rep (_, rep) -> rep | _ -> invalid_arg "Fs_client.rep_of"
let give_up = R_err "EIO"

let rpc t req =
  t.seq <- t.seq + 1;
  Rpc.call ~sgate:t.sgate ~reply_ep:t.reply_ep ~size:(req_size req) ~tag:t.seq
    ~wrap ~tag_of ~rep_of ~give_up req

let fd_state t fd =
  match Int_table.find t.fds fd with
  | st -> st
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Fs_client: unknown fd %d" fd)

let open_ t path flags =
  let* rep = rpc t (Open { path; flags }) in
  match rep with
  | R_fd fd ->
      Int_table.replace t.fds fd
        { pos = 0; max_written = 0; writable = flags.fl_write; window = None };
      Proc.return (Ok fd)
  | R_err e -> Proc.return (Error e)
  | _ -> failwith "Fs_client: bad open reply"

(* Install the extent containing [pos] on the data endpoint. *)
let switch_extent t st ~fd ~writable =
  let req =
    if writable then Write_ext { fd; off = st.pos } else Read_ext { fd; off = st.pos }
  in
  let* rep = rpc t req in
  match rep with
  | R_eof ->
      st.window <- None;
      Proc.return false
  | R_ext { sel; win_off = _; win_len; win_file_off } ->
      t.switches <- t.switches + 1;
      (* Activate the extent capability on the reusable data endpoint. *)
      let* rep =
        A.syscall_exn t.env (Proto.Activate { sel; ep = Some t.data_ep })
      in
      (match rep with Proto.Ok_ep _ -> () | _ -> failwith "Fs_client: activate");
      t.ep_fd <- fd;
      st.window <-
        Some { w_file_off = win_file_off; w_len = win_len; w_writable = writable };
      Proc.return true
  | R_err _ ->
      (* I/O error (e.g. the service is gone for good): surface it as a
         short transfer, like a POSIX read/write would. *)
      st.window <- None;
      Proc.return false
  | _ -> failwith "Fs_client: bad extent reply"

(* The data endpoint is shared across fds: the cached window is only valid
   while this fd still owns the endpoint. *)
let window_covers t st ~fd ~writable =
  t.ep_fd = fd
  &&
  match st.window with
  | Some w ->
      w.w_writable = writable
      && st.pos >= w.w_file_off
      && st.pos < w.w_file_off + w.w_len
  | None -> false

(* libc-level bookkeeping per read()/write() call: position and window
   management, argument checking. *)
let libc_call_cycles = 350

(* Transfer [len] bytes at the fd's position, chunked to the vDTU's
   one-page-per-command limit. *)
let transfer t ~fd ~(buf : M3v_mux.Act_ops.buf) ~len ~writable =
  let st = fd_state t fd in
  if writable && not st.writable then failwith "Fs_client: fd not writable";
  let total = ref 0 in
  let* () = A.compute libc_call_cycles in
  let rec loop () =
    if !total >= len then Proc.return !total
    else
      let* have_window =
        if window_covers t st ~fd ~writable then Proc.return true
        else switch_extent t st ~fd ~writable
      in
      if not have_window then Proc.return !total (* EOF *)
      else begin
        let w = Option.get st.window in
        let window_left = w.w_file_off + w.w_len - st.pos in
        let page_left =
          M3v_dtu.Dtu_types.page_size
          - M3v_dtu.Dtu_types.page_offset (buf.M3v_mux.Act_ops.vaddr + !total)
        in
        let chunk = min (min (len - !total) window_left) page_left in
        let region_off = st.pos - w.w_file_off in
        let vaddr = buf.M3v_mux.Act_ops.vaddr + !total in
        let* () =
          if writable then
            A.mem_write ~ep:t.data_ep ~off:region_off ~len:chunk ~vaddr
              ~src:buf.M3v_mux.Act_ops.data ~src_off:!total ()
          else
            A.mem_read ~ep:t.data_ep ~off:region_off ~len:chunk ~vaddr
              ~dst:buf.M3v_mux.Act_ops.data ~dst_off:!total ()
        in
        st.pos <- st.pos + chunk;
        if writable then st.max_written <- max st.max_written st.pos;
        total := !total + chunk;
        loop ()
      end
  in
  loop ()

let read t ~fd ~buf ~len = transfer t ~fd ~buf ~len ~writable:false
let write t ~fd ~buf ~len = transfer t ~fd ~buf ~len ~writable:true

let seek t ~fd ~pos =
  let st = fd_state t fd in
  st.pos <- pos;
  Proc.return ()

let close t ~fd =
  let st = fd_state t fd in
  Int_table.remove t.fds fd;
  let* rep = rpc t (Close { fd; size = st.max_written }) in
  match rep with
  | R_ok | R_err _ -> Proc.return ()  (* the fd is gone either way *)
  | _ -> failwith "Fs_client: bad close reply"

let read_inline t ~fd ~off ~len =
  let* rep = rpc t (Read_inline { fd; off; len }) in
  match rep with
  | R_data data -> Proc.return data
  | R_err e -> failwith ("Fs_client: inline read failed: " ^ e)
  | _ -> failwith "Fs_client: bad inline reply"

let write_inline t ~fd ~off ~data =
  let* rep = rpc t (Write_inline { fd; off; data }) in
  match rep with
  | R_ok -> Proc.return ()
  | R_err e -> failwith ("Fs_client: inline write failed: " ^ e)
  | _ -> failwith "Fs_client: bad inline write reply"

let stat t path =
  let* rep = rpc t (Stat { path }) in
  match rep with
  | R_stat _ -> Proc.return (Ok rep)
  | R_err e -> Proc.return (Error e)
  | _ -> failwith "Fs_client: bad stat reply"

let readdir t path =
  let* rep = rpc t (Readdir { path }) in
  match rep with
  | R_names names -> Proc.return (Ok names)
  | R_err e -> Proc.return (Error e)
  | _ -> failwith "Fs_client: bad readdir reply"

let simple t req =
  let* rep = rpc t req in
  match rep with
  | R_ok -> Proc.return (Ok ())
  | R_err e -> Proc.return (Error e)
  | _ -> failwith "Fs_client: bad reply"

let mkdir t path = simple t (Mkdir { path })
let unlink t path = simple t (Unlink { path })

let to_vfs t =
  {
    Vfs.open_ = (fun path flags -> open_ t path flags);
    read = (fun fd buf len -> read t ~fd ~buf ~len);
    write = (fun fd buf len -> write t ~fd ~buf ~len);
    seek = (fun fd pos -> seek t ~fd ~pos);
    close = (fun fd -> close t ~fd);
    stat = (fun path -> stat t path);
    readdir = (fun path -> readdir t path);
    mkdir = (fun path -> mkdir t path);
    unlink = (fun path -> unlink t path);
  }
