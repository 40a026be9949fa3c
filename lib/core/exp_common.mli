(** Shared helpers for the experiment harness. *)

(** One bar of a bar chart: label, mean, standard deviation. *)
type bar = { label : string; mean : float; stddev : float }

val bar_of_times : string -> M3v_sim.Time.t list -> to_unit:(M3v_sim.Time.t -> float) -> bar

(** [timed_runs ~warmup ~runs times one_run] runs [one_run] [warmup]
    times, then [runs] more times, consing each of the later runs'
    durations onto [times]. *)
val timed_runs :
  warmup:int ->
  runs:int ->
  M3v_sim.Time.t list ref ->
  (unit -> unit M3v_sim.Proc.t) ->
  unit M3v_sim.Proc.t

(** [grid pool f xs ys] runs [f x y] as one task per pair, submitted
    x-major, and returns each [x] with its results in [ys] order.  Results
    merge in submission order, so they do not depend on the pool's
    width. *)
val grid :
  M3v_par.Par.Pool.t -> ('x -> 'y -> 'r) -> 'x list -> 'y list -> ('x * 'r list) list

(** Render bars with a textual bar chart. *)
val print_bars : title:string -> unit_label:string -> bar list -> unit

(** Render an (x, series...) table: one line per x value. *)
val print_series :
  title:string ->
  x_label:string ->
  series_labels:string list ->
  (float * float list) list ->
  unit

val print_kv : title:string -> (string * string) list -> unit

(** Default measurement tiles on the FPGA spec: the first three BOOM user
    tiles (tile 0 is the controller). *)
val boom_tile_a : int

val boom_tile_b : int
val boom_tile_c : int
val boom_tile_d : int

(** The Rocket processing tile of the FPGA spec. *)
val rocket_tile : int
