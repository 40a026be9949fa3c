open M3v_sim.Proc.Syntax
module Proc = M3v_sim.Proc
module Msg = M3v_dtu.Msg
module A = M3v_mux.Act_api

type req = Get of string | Put of string * bytes
type rep = Value of bytes option | Done | Failed of string

type M3v_dtu.Msg.data += Kv_req of req | Kv_rep of rep

let () =
  M3v_sim.Checkpoint.register_exts
    [ [%extension_constructor Kv_req]; [%extension_constructor Kv_rep] ]

let req_size = function
  | Get key -> 16 + String.length key
  | Put (key, value) -> 16 + String.length key + Bytes.length value

let rep_size = function
  | Value (Some v) -> 16 + Bytes.length v
  | Value None | Done -> 16
  | Failed e -> 16 + String.length e

let program ~vfs ~rgate ?(dir = "/kv") () _env =
  let* store = Kvstore.create ~vfs:(Option.get !vfs) ~dir () in
  match store with
  | Error e -> failwith ("kvserv: store creation failed: " ^ e)
  | Ok store ->
      let rec serve () =
        let* ep, msg = A.recv ~eps:[ !rgate ] in
        let* rep =
          match msg.Msg.data with
          | Kv_req (Get key) ->
              let+ v = Kvstore.get store ~key in
              Value v
          | Kv_req (Put (key, value)) ->
              let+ () = Kvstore.put store ~key ~value in
              Done
          | _ -> Proc.return (Failed "unknown request")
        in
        let* () = A.reply ~recv_ep:ep ~msg ~size:(rep_size rep) (Kv_rep rep) in
        serve ()
      in
      serve ()
