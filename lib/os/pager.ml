
open M3v_sim.Proc.Syntax
module A = M3v_mux.Act_api
module Runtime = M3v_mux.Runtime
module Proto = M3v_kernel.Protocol

let fault_policy_cycles = 260
let pool_pages = 4096

let program ~rgate () (env : A.env) =
  (* Obtain the physical pool: one Alloc_mem syscall at startup.  The
     returned capability is the root the pager could derive per-activity
     frames from; frames are handed out bump-style. *)
  let* _pool =
    A.syscall_exn env
      (Proto.Alloc_mem
         { size = pool_pages * M3v_dtu.Dtu_types.page_size; perm = M3v_dtu.Dtu_types.RW })
  in
  let next_page = ref 0 in
  let rec serve () =
    let* _ep, msg = A.recv ~eps:[ rgate ] in
    match msg.M3v_dtu.Msg.data with
    | Runtime.Pf_fault { pf_act; pf_vpage; _ } ->
        if !next_page >= pool_pages then
          failwith "Pager: physical pool exhausted";
        let ppage = !next_page in
        incr next_page;
        (* Fault policy: demand-zero allocation. *)
        let* () = A.compute fault_policy_cycles in
        let* _ =
          A.syscall_exn env
            (Proto.Map_for
               {
                 target = pf_act;
                 vpage = pf_vpage;
                 ppage;
                 perm = M3v_dtu.Dtu_types.RW;
               })
        in
        let* () =
          A.reply ~recv_ep:rgate ~msg ~size:8 M3v_dtu.Msg.Empty
        in
        serve ()
    | _ ->
        (* Unknown request: acknowledge and continue. *)
        let* () = A.ack ~ep:rgate msg in
        serve ()
  in
  serve ()
