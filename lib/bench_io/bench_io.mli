(** A small JSON reader, with no dependency.  perfbench parses its
    reports with it, and the tests of the repo's JSON emitters (Chrome
    traces, the metrics registry) check their output against it. *)

(** Generic JSON values. *)
type json =
  | J_null
  | J_bool of bool
  | J_num of float
  | J_str of string
  | J_arr of json list
  | J_obj of (string * json) list

exception Parse_error of string

(** [parse_json s] parses a complete JSON document (objects, arrays,
    strings with \-escapes, numbers, null, true/false); raises
    {!Parse_error} on malformed input or trailing garbage. *)
val parse_json : string -> json

(** Exception-free wrapper around {!parse_json}. *)
val json_of_string : string -> (json, string) Stdlib.result
