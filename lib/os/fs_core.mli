(** m3fs core: the extent-based file-system structures.

    Pure logic, no simulation: inodes, directories, a block allocator that
    prefers contiguous runs, and extents capped at [max_extent_blocks]
    blocks (the paper's evaluation sets this to 64, section 6.3).  The
    service wraps this with the RPC protocol and charges DMA costs; file
    content itself lives in the service's DRAM region, addressed by block
    number. *)

type t

val block_size : int

(** Paper setting: extents are limited to 64 blocks. *)
val default_max_extent_blocks : int

val create : ?max_extent_blocks:int -> blocks:int -> unit -> t

val max_extent_blocks : t -> int
val total_blocks : t -> int
val free_blocks : t -> int

type ino = int

type stat = { st_ino : ino; st_size : int; st_is_dir : bool; st_blocks : int }

(** An extent: a contiguous run of blocks. *)
type extent = { e_start : int; e_blocks : int }

val root : ino

(** Path resolution ("/a/b/c", leading slash optional). *)
val lookup : t -> string -> ino option

val mkdir : t -> string -> (ino, string) result
val create_file : t -> string -> (ino, string) result

(** Remove a file (frees its blocks) or an empty directory. *)
val unlink : t -> string -> (unit, string) result

val readdir : t -> string -> (string list, string) result
val stat : t -> string -> (stat, string) result
val fstat : t -> ino -> stat
val size : t -> ino -> int
val set_size : t -> ino -> int -> unit
val truncate : t -> ino -> unit

(** [read_extent t ino ~off] is the extent window containing byte [off]:
    (byte offset of the window in the data region, window length in bytes,
    file offset of the window start), or [None] at/after EOF. *)
val read_extent : t -> ino -> off:int -> (int * int * int) option

(** [ensure_write_extent t ino ~off] guarantees an extent covering byte
    [off], allocating (and returning, for clearing) fresh blocks if
    needed.  Streaming writes allocate eagerly, up to a full
    [max_extent_blocks] run at a time (the point of the extent design).
    Returns the window like {!read_extent} plus the newly allocated
    extents. *)
val ensure_write_extent :
  t -> ino -> off:int -> (int * int * int) * extent list

(** [ensure_range t ino ~off ~len] ensures the extent covering byte
    [off], then (when [len > 0]) the one covering byte [off + len - 1],
    and returns the freshly allocated extents in allocation order. *)
val ensure_range : t -> ino -> off:int -> len:int -> extent list

(** [open_file t path ~create ~trunc] resolves [path] for an open:
    [create] makes a missing file (an existing one opens as is), and
    [trunc] empties the file. *)
val open_file :
  t -> string -> create:bool -> trunc:bool -> (ino, string) result

(** [preallocate t ino ~blocks] grows the file to at least [blocks] blocks
    without over-allocating (host-side setup of small files). *)
val preallocate : t -> ino -> blocks:int -> unit

(** Byte segments (data-region offset, offset within the request, length)
    covering [off, off+len) of the file in order, clipped to the file
    size.  For inline reads/writes. *)
val segments : t -> ino -> off:int -> len:int -> (int * int * int) list

val is_dir : t -> ino -> bool

(** Invariants checked by property tests: no block is referenced twice, all
    referenced blocks are marked allocated, extent sizes respect the cap. *)
val check_invariants : t -> (unit, string) result
