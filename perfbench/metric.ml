(* The metric catalogue and the result line.

   The names and units here are the ones BENCHMARK.json declares (a test
   holds the two equal). [render] refuses a value list that does not
   match the catalogue, so the driver can never print a result that
   silently drops or renames a metric. *)

let languages = [ "abdl"; "daplex"; "codasyl"; "sql"; "dli" ]

(* From the untraced run: what a client of the server sees. *)
let end_to_end =
  [
    ("throughput_ops_s", "1/s");
    ("p50_us", "us");
    ("setup_s", "s");
    ("server_rss_mb", "MiB");
    ("stored_bytes_per_user_byte", "ratio");
  ]

(* From the traced run: one layer each (perfbench/README.md says which
   end-to-end metric each should move). *)
let per_layer =
  [
    ("wire.encode_us", "us");
    ("wire.decode_us", "us");
    ("wire.request_bytes", "B");
    ("wire.reply_bytes", "B");
    ("server.edge_us", "us");
    ("server.batch_size_mean", "count");
    ("server.read_run_len_mean", "count");
    ("server.rejected", "count");
    ("server.shed", "count");
    ("lil.classify_us", "us");
    ("stmt_cache.hit_ratio", "ratio");
  ]
  @ List.map (fun l -> ("lil.submit_us." ^ l, "us")) languages
  @ List.map (fun l -> (l ^ ".parse_us", "us")) languages
  @ List.map (fun l -> (l ^ ".kernel_requests_per_stmt", "count")) languages
  @ [
      ("abdm.request_us", "us");
      ("abdm.plan.index_ratio", "ratio");
      ("abdm.plan.residual_ratio", "ratio");
      ("mbds.pool.queue_wait_us", "us");
      ("mbds.pool.execute_us", "us");
      ("wal.append_us", "us");
      ("wal.fsync_us", "us");
      ("wal.fsyncs_per_write", "count");
      ("wal.group_commit_size_mean", "count");
      ("wal.bytes_per_write", "B");
      ("checkpoint.count", "count");
      ("checkpoint.duration_ms", "ms");
      ("checkpoint.reclaimed_bytes", "B");
      ("obs.trace_overhead_pct", "%");
      ("client.p99_us", "us");
      ("client.read_p50_us", "us");
      ("client.write_p50_us", "us");
    ]
  @ List.map (fun l -> ("client." ^ l ^ "_p50_us", "us")) (List.filter (( <> ) "dli") languages)
  @ [ ("client.error_rate", "ratio") ]

(* A name starts with a letter or digit and uses letters, digits, '_',
   '.' and '-' only, at most 64 of them. *)
let valid_name s =
  let ok = function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  let n = String.length s in
  n >= 1 && n <= 64 && ok s.[0] && s.[0] <> '_' && s.[0] <> '.' && s.[0] <> '-'
  && String.for_all ok s

(* Every value exactly as measured; a value that is not a number (a
   mean over no samples) is a bug in the caller, not a 0. *)
let render ~correct ~attempted ~failed ~catalogue values =
  if List.map fst values <> List.map fst catalogue then
    invalid_arg "Metric.render: values do not match the catalogue";
  let field (name, v) =
    if not (Float.is_finite v) then invalid_arg ("Metric.render: " ^ name ^ " is not finite");
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name v (List.assoc name catalogue)
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}" correct
    attempted failed
    (String.concat ", " (List.map field values))
