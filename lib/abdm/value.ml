type t =
  | Int of int
  | Float of float
  | Str of string
  | Null

let class_rank = function
  | Null -> 0
  | Int _ | Float _ -> 1
  | Str _ -> 2

let compare a b =
  match a, b with
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | Str x, Str y -> String.compare x y
  | Null, Null -> 0
  | (Null | Int _ | Float _ | Str _), _ -> Int.compare (class_rank a) (class_rank b)

let equal a b = compare a b = 0

let is_null = function
  | Null -> true
  | Int _ | Float _ | Str _ -> false

(* a string literal doubles each embedded quote *)
let add_quoted buf s =
  let n = String.length s in
  let rec from start =
    match String.index_from_opt s start '\'' with
    | None -> Buffer.add_substring buf s start (n - start)
    | Some i ->
      Buffer.add_substring buf s start (i + 1 - start);
      Buffer.add_char buf '\'';
      from (i + 1)
  in
  Buffer.add_char buf '\'';
  from 0;
  Buffer.add_char buf '\''

let add_to_buffer buf = function
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> Buffer.add_string buf (Printf.sprintf "%g" f)
  | Str s -> add_quoted buf s
  | Null -> Buffer.add_string buf "NULL"

let to_string = function
  | Int i -> string_of_int i
  | v ->
    let buf = Buffer.create 16 in
    add_to_buffer buf v;
    Buffer.contents buf

let to_display = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%g" f
  | Str s -> s
  | Null -> "NULL"

let pp ppf v = Format.pp_print_string ppf (to_string v)

let of_literal s =
  let s = String.trim s in
  let len = String.length s in
  if len = 0 then invalid_arg "Value.of_literal: empty literal"
  else if len >= 2 && s.[0] = '\'' && s.[len - 1] = '\'' then
    Str (String.sub s 1 (len - 2))
  else if String.uppercase_ascii s = "NULL" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None ->
      match float_of_string_opt s with
      | Some f -> Float f
      | None -> invalid_arg (Printf.sprintf "Value.of_literal: %S" s)
