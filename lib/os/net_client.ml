open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
open Net_proto

type t = {
  sgate : int;
  reply_ep : int;
  mutable seq : int;  (** request tag counter (stale-reply detection) *)
}

let create ~sgate ~reply_ep = { sgate; reply_ep; seq = 0 }

let wrap tag req = Net (tag, req)
let tag_of = function Net_rep (tag, _) -> tag | _ -> -1
let rep_of = function Net_rep (_, rep) -> rep | _ -> invalid_arg "Net_client.rep_of"
let give_up = N_err "ECONNRESET"

let rpc t req =
  t.seq <- t.seq + 1;
  Rpc.call ~sgate:t.sgate ~reply_ep:t.reply_ep ~size:(req_size req) ~tag:t.seq
    ~wrap ~tag_of ~rep_of ~give_up req

let socket t =
  let* rep = rpc t Socket in
  match rep with
  | N_sock id -> Proc.return id
  | _ -> failwith "Net_client: bad socket reply"

let bind t ~sock ~port =
  let* rep = rpc t (Bind { sock; port }) in
  match rep with
  | N_ok -> Proc.return ()
  | N_err e -> failwith ("Net_client: bind: " ^ e)
  | _ -> failwith "Net_client: bad bind reply"

let sendto t ~sock ~dst data =
  let* rep = rpc t (Sendto { sock; dst; data }) in
  match rep with
  | N_ok -> Proc.return ()
  | N_err e -> failwith ("Net_client: sendto: " ^ e)
  | _ -> failwith "Net_client: bad sendto reply"

let recvfrom t ~sock =
  let* rep = rpc t (Recvfrom { sock }) in
  match rep with
  | N_pkt { src; data } -> Proc.return (src, data)
  | N_err e -> failwith ("Net_client: recvfrom: " ^ e)
  | _ -> failwith "Net_client: bad recvfrom reply"

let close t ~sock =
  let* rep = rpc t (Close_sock { sock }) in
  match rep with
  | N_ok -> Proc.return ()
  | _ -> failwith "Net_client: bad close reply"

type udp = {
  u_socket : unit -> int Proc.t;
  u_bind : int -> int -> unit Proc.t;
  u_sendto : int -> Net_proto.addr -> bytes -> unit Proc.t;
  u_recvfrom : int -> (Net_proto.addr * bytes) Proc.t;
  u_close : int -> unit Proc.t;
}

let to_udp t =
  {
    u_socket = (fun () -> socket t);
    u_bind = (fun sock port -> bind t ~sock ~port);
    u_sendto = (fun sock dst data -> sendto t ~sock ~dst data);
    u_recvfrom = (fun sock -> recvfrom t ~sock);
    u_close = (fun sock -> close t ~sock);
  }
