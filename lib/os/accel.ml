module Engine = M3v_sim.Engine
module Time = M3v_sim.Time
module Dtu = M3v_dtu.Dtu
module Msg = M3v_dtu.Msg

type M3v_dtu.Msg.data += Data of bytes | End_of_stream

let () =
  M3v_sim.Checkpoint.register_exts
    [ [%extension_constructor Data]; [%extension_constructor End_of_stream] ]

type t = {
  engine : Engine.t;
  dtu : Dtu.t;
  rgate : int;
  out_ep : int;
  ns_per_byte : int;
  transform : bytes -> bytes;
  mutable busy : bool;
  mutable processed : int;
  mutable bytes_in : int;
}

let processed t = t.processed
let bytes_in t = t.bytes_in

(* Accelerators process one message at a time; further arrivals queue in
   the receive buffer and drain when the pipeline stage frees up. *)
let rec pump t =
  if not t.busy then
    match Dtu.fetch t.dtu ~ep:t.rgate with
    | Ok (Some msg) ->
        t.busy <- true;
        let payload, out_data, out_size =
          match msg.Msg.data with
          | Data payload ->
              let result = t.transform payload in
              (Bytes.length payload, Data result, Bytes.length result)
          | other -> (0, other, 8)
        in
        t.processed <- t.processed + 1;
        t.bytes_in <- t.bytes_in + payload;
        let work = Time.ns (t.ns_per_byte * max 1 payload) in
        Engine.after t.engine ~delay:work (fun () ->
            forward t msg out_data out_size)
    | Ok None | Error _ -> ()

(* Send the stage's output for input [msg].  The stage stays busy until
   the output has gone out, and only then acks its input and takes the
   next message, so blocks leave in the order they came in. *)
and forward t msg data size =
  let rec complete = function
    | Ok () ->
        (match Dtu.ack t.dtu ~ep:t.rgate msg with Ok () | Error _ -> ());
        t.busy <- false;
        pump t
    | Error (M3v_dtu.Dtu_types.No_credits | M3v_dtu.Dtu_types.Recv_gone) ->
        (* Downstream backpressure: retry every 5 us. *)
        Dtu.spin_send t.dtu ~ep:t.out_ep ~msg_size:size data ~poll_ps:(Time.us 5)
          ~on_poll:ignore ~on_settle:ignore ~k:complete
    | Error e ->
        failwith
          ("Accel: forward failed: " ^ M3v_dtu.Dtu_types.error_to_string e)
  in
  Dtu.send t.dtu ~ep:t.out_ep ~msg_size:size data ~k:complete

let attach ~engine ~dtu ~rgate ~out_ep ~ns_per_byte ~transform () =
  let t =
    {
      engine;
      dtu;
      rgate;
      out_ep;
      ns_per_byte;
      transform;
      busy = false;
      processed = 0;
      bytes_in = 0;
    }
  in
  Dtu.set_msg_arrived dtu (fun _ -> pump t);
  t
