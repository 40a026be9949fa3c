type op = ..
type resp = ..
type resp += Unit | Error of string

let () =
  Checkpoint.register_exts
    [ [%extension_constructor Unit]; [%extension_constructor Error] ]

type action = Finished | Request of op * (resp -> action)
type 'a t = ('a -> action) -> action

let return x k = k x
let bind m f k = m (fun x -> f x k)
let map f m k = m (fun x -> k (f x))

module Syntax = struct
  let ( let* ) = bind
  let ( let+ ) m f = map f m
end

let decode_error what resp =
  let detail =
    match resp with Error msg -> ": " ^ msg | _ -> " (wrong response shape)"
  in
  failwith (Printf.sprintf "Proc: unexpected response for %s%s" what detail)

let perform op decode k = Request (op, fun resp -> k (decode resp))

let run m = m (fun () -> Finished)

let rec iter_list f = function
  | [] -> return ()
  | x :: rest -> bind (f x) (fun () -> iter_list f rest)

let repeat n f =
  let rec loop i = if i >= n then return () else bind (f i) (fun () -> loop (i + 1)) in
  loop 0

let rec fold_list f acc = function
  | [] -> return acc
  | x :: rest -> bind (f acc x) (fun acc -> fold_list f acc rest)
