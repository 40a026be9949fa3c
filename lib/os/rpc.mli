(** Tagged request/reply calls to an OS service, shared by the m3fs and
    net clients.

    Every request carries a tag, so a reply is matched to its request.
    With faults off a call is one {!M3v_mux.Act_api.call}.  Under fault
    injection the server may have crashed: each wait for the reply is
    bounded by 8 ms (generous relative to the DTU's own retransmit
    budget, so it only trips when the server is really gone), a request
    is sent at most three times, replies to abandoned attempts are
    dropped, and a server that never answers yields the caller's give-up
    value instead of blocking forever. *)

(** [call ~sgate ~reply_ep ~size ~tag ~wrap ~tag_of ~rep_of ~give_up req]
    sends [wrap tag req], a [size]-byte message, and returns the value of
    its reply.  [tag_of d] is the tag of reply payload [d], or negative if
    [d] is no reply; [rep_of d] is the value of a reply payload.  Fails on
    a payload that is no reply, and with faults off on a reply with
    another tag. *)
val call :
  sgate:int ->
  reply_ep:int ->
  size:int ->
  tag:int ->
  wrap:(int -> 'req -> M3v_dtu.Msg.data) ->
  tag_of:(M3v_dtu.Msg.data -> int) ->
  rep_of:(M3v_dtu.Msg.data -> 'rep) ->
  give_up:'rep ->
  'req ->
  'rep M3v_sim.Proc.t
