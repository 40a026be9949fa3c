(** The pager service (paper, section 4.3).

    The pager is an ordinary activity responsible for the address-space
    layout of the activities under its control.  TileMux forwards page
    faults to it; the pager picks a frame and asks the controller (with a
    [Map_for] syscall) to install the mapping, which the controller
    forwards to the responsible TileMux instance.  This implementation
    provides demand-zero paging from a physical pool the pager allocates at
    startup. *)

(** The pager's program.  [rgate] is the receive endpoint (on the pager's
    tile) where TileMux fault messages arrive; the physical pool holds
    4096 pages (16 MiB). *)
val program :
  rgate:int ->
  unit ->
  M3v_mux.Act_api.env ->
  unit M3v_sim.Proc.t

