(** Network-on-chip topologies.

    A topology connects [tiles] tiles through routers.  Every tile has a
    dedicated injection link (tile -> router) and ejection link
    (router -> tile); routers are connected by directed links.  Routes are
    shortest paths, precomputed and deterministic. *)

type t

(** The paper's platform: four routers in a 2x2 mesh ("star-mesh"), tiles
    spread round-robin across the routers.  [tiles] >= 1. *)
val star_mesh_2x2 : tiles:int -> t

(** A [cols] x [rows] router mesh with XY routing order (by BFS). *)
val mesh : cols:int -> rows:int -> tiles:int -> t

(** A unidirectional-pair ring of [routers] routers. *)
val ring : routers:int -> tiles:int -> t

(** A single router connecting all tiles (crossbar). *)
val single_router : tiles:int -> t

val tiles : t -> int
val routers : t -> int

(** Total number of directed links (tile links + router links). *)
val link_count : t -> int

(** [route t ~src ~dst] is the ordered list of directed link ids a packet
    traverses from tile [src] to tile [dst].  [src = dst] yields []. *)
val route : t -> src:int -> dst:int -> int list

(** The same links as {!route}, as the precomputed array shared by every
    packet on this pair.  Callers must not modify it. *)
val route_links : t -> src:int -> dst:int -> int array

(** Number of router-to-router hops between two tiles. *)
val hops : t -> src:int -> dst:int -> int

(** Human-readable link name, for stats reporting. *)
val link_name : t -> int -> string
