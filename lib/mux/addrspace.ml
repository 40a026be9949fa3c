module Dtu_types = M3v_dtu.Dtu_types

type stats = { faults : int }

type t = {
  pages : (int, int * Dtu_types.perm) Hashtbl.t;
  mutable next_vaddr : int;
  mutable faults : int;
}

(* Virtual regions start above the traditional text/stack area. *)
let region_base = 0x1000_0000

let create () = { pages = Hashtbl.create 64; next_vaddr = region_base; faults = 0 }

let alloc_region t ~size =
  if size <= 0 then invalid_arg "Addrspace.alloc_region: size must be positive";
  let pages =
    (size + Dtu_types.page_size - 1) / Dtu_types.page_size
  in
  let vaddr = t.next_vaddr in
  t.next_vaddr <- vaddr + (pages * Dtu_types.page_size);
  vaddr

let translate t ~vpage = Hashtbl.find_opt t.pages vpage
let is_mapped t ~vpage = Hashtbl.mem t.pages vpage
let map t ~vpage ~ppage ~perm = Hashtbl.replace t.pages vpage (ppage, perm)
let note_fault t = t.faults <- t.faults + 1
let stats t = { faults = t.faults }
