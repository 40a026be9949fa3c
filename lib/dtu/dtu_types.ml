type act_id = int

let invalid_act = 0xFFFF
let tilemux_act = 0xFFFE
let is_reserved_act id = id = invalid_act || id = tilemux_act

let pp_act fmt id =
  if id = invalid_act then Format.pp_print_string fmt "<invalid>"
  else if id = tilemux_act then Format.pp_print_string fmt "<tilemux>"
  else Format.fprintf fmt "act%d" id

type perm = R | W | RW

let perm_allows_read = function R | RW -> true | W -> false
let perm_allows_write = function W | RW -> true | R -> false

type error =
  | No_such_ep
  | Unknown_ep
  | Wrong_ep_type
  | No_credits
  | Msg_too_large
  | Recv_gone
  | Translation_fault of int
  | Out_of_bounds
  | No_perm
  | Page_boundary
  | Timeout

let error_to_string = function
  | No_such_ep -> "no such endpoint"
  | Unknown_ep -> "unknown endpoint"
  | Wrong_ep_type -> "wrong endpoint type"
  | No_credits -> "no credits"
  | Msg_too_large -> "message too large"
  | Recv_gone -> "receiver gone"
  | Translation_fault page -> Printf.sprintf "translation fault (page %#x)" page
  | Out_of_bounds -> "out of bounds"
  | No_perm -> "no permission"
  | Page_boundary -> "transfer crosses page boundary"
  | Timeout -> "command timed out"

let page_size = 4096
let page_of_addr addr = addr / page_size
let page_offset addr = addr mod page_size

let crosses_page addr len =
  len > 0 && page_of_addr addr <> page_of_addr (addr + len - 1)
