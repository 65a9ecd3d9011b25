type aggregate =
  | Count
  | Sum
  | Avg
  | Min
  | Max

type target_item =
  | T_all
  | T_attr of string
  | T_agg of aggregate * string

type request =
  | Insert of Abdm.Record.t
  | Delete of Abdm.Query.t
  | Update of Abdm.Query.t * Abdm.Modifier.t list
  | Retrieve of retrieve
  | Retrieve_common of retrieve_common

and retrieve = {
  query : Abdm.Query.t;
  targets : target_item list;
  by : string option;
}

and retrieve_common = {
  rc_left : Abdm.Query.t;
  rc_left_attr : string;
  rc_right : Abdm.Query.t;
  rc_right_attr : string;
  rc_targets : target_item list;
}

type transaction = request list

let retrieve ?by query targets = Retrieve { query; targets; by }

let has_aggregate targets =
  let is_agg = function
    | T_agg _ -> true
    | T_all | T_attr _ -> false
  in
  List.exists is_agg targets

let aggregate_to_string = function
  | Count -> "COUNT"
  | Sum -> "SUM"
  | Avg -> "AVG"
  | Min -> "MIN"
  | Max -> "MAX"

let target_to_string = function
  | T_all -> "ALL"
  | T_attr attr -> attr
  | T_agg (agg, attr) -> Printf.sprintf "%s(%s)" (aggregate_to_string agg) attr

let query_to_string = Abdm.Query.to_string

(* The one INSERT printer: a request, a WAL frame and a snapshot line all
   render a record through it, straight into the caller's buffer. *)
let add_insert buf (record : Abdm.Record.t) =
  Buffer.add_string buf "INSERT (";
  List.iteri
    (fun i kw ->
      if i > 0 then Buffer.add_string buf ", ";
      Abdm.Keyword.add_to_buffer buf kw)
    record.keywords;
  Buffer.add_char buf ')'

let to_string = function
  | Insert record ->
    let buf = Buffer.create 128 in
    add_insert buf record;
    Buffer.contents buf
  | Delete query -> Printf.sprintf "DELETE (%s)" (query_to_string query)
  | Update (query, modifiers) ->
    Printf.sprintf "UPDATE (%s) (%s)" (query_to_string query)
      (String.concat ", " (List.map Abdm.Modifier.to_string modifiers))
  | Retrieve { query; targets; by } ->
    let target_part =
      String.concat ", " (List.map target_to_string targets)
    in
    let by_part =
      match by with
      | Some attr -> " BY " ^ attr
      | None -> ""
    in
    Printf.sprintf "RETRIEVE (%s) (%s)%s" (query_to_string query) target_part
      by_part
  | Retrieve_common { rc_left; rc_left_attr; rc_right; rc_right_attr; rc_targets } ->
    Printf.sprintf "RETRIEVE_COMMON (%s) (%s) AND (%s) (%s) (%s)"
      (query_to_string rc_left) rc_left_attr
      (query_to_string rc_right) rc_right_attr
      (String.concat ", " (List.map target_to_string rc_targets))

let pp ppf request = Format.pp_print_string ppf (to_string request)
