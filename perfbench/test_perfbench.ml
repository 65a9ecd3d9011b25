(* Tests of the benchmark's own machinery: seeded streams, exact
   quantiles and the metric catalogue. The end-to-end smoke pass, which
   runs every workload against a real server with its reply checks, is
   `python3 perfbench/run.py --smoke`. *)

open Perfbench

let workloads = [ Gen.Point_read; Gen.Ingest; Gen.Multilingual ]

(* Everything a run sends for [w] under [seed]: set-up, warm-up and the
   first 300 timed requests of every connection, as one byte string. *)
let transcript w ~seed =
  let texts ops = List.map (fun (o : Gen.op) -> o.text) ops in
  let conns = List.init (Gen.connections w) Fun.id in
  String.concat "\x00"
    (texts (Gen.setup_ops w ~seed)
    @ List.concat_map (fun conn -> texts (Gen.warmup_ops w ~seed ~conn)) conns
    @ List.concat_map
        (fun conn ->
          let next = Gen.stream w ~seed ~conn in
          List.init 300 (fun _ -> (next ()).Gen.text))
        conns)

let test_same_seed_same_stream () =
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Gen.workload_name w ^ " is byte-identical")
        true
        (String.equal (transcript w ~seed:42) (transcript w ~seed:42)))
    workloads

let test_other_seed_other_stream () =
  List.iter
    (fun w ->
      Alcotest.(check bool)
        (Gen.workload_name w ^ " differs")
        false
        (String.equal (transcript w ~seed:42) (transcript w ~seed:43)))
    workloads

(* Pinned values: a change to the generator changes every seed's data,
   which makes older results incomparable; this says so loudly. *)
let test_generator_pinned () =
  let r = Gen.rng 1 ~stream:0 in
  Alcotest.(check (list int)) "first draws" [ 59; 96; 84; 16 ]
    (List.init 4 (fun _ -> Gen.int r 100))

let test_stream_shapes () =
  let next = Gen.stream Gen.Multilingual ~seed:5 ~conn:0 in
  let ops = List.init 640 (fun _ -> next ()) in
  let writes = List.length (List.filter (fun (o : Gen.op) -> o.kind = Gen.Write) ops) in
  Alcotest.(check bool) "about a tenth write" true (writes > 40 && writes < 90);
  Alcotest.(check (list string)) "blocks rotate"
    [ "abdl"; "daplex"; "codasyl"; "sql"; "abdl" ]
    (List.init 5 (fun b -> (List.nth ops (b * Gen.block_len)).Gen.lang));
  let more = List.init 4000 (fun _ -> (next ()).Gen.text) in
  Alcotest.(check bool) "well beyond the statement cache's 512 texts" true
    (List.length (List.sort_uniq compare more) > 1500);
  let ingest = Gen.stream Gen.Ingest ~seed:5 ~conn:1 () in
  Alcotest.(check int) "ingest batch" Gen.ingest_batch ingest.stmts;
  Alcotest.(check (option string)) "ingest file" (Some "ing1") ingest.file;
  let hot = Gen.hot_set ~seed:5 in
  Alcotest.(check int) "distinct hot keys" Gen.hot_keys
    (List.length (List.sort_uniq compare (Array.to_list hot)))

let test_quantiles () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  let s = Quant.sorted a in
  let check name want got = Alcotest.(check (float 0.)) name want got in
  check "p50 of 1..100" 50. (Quant.rank s 50.);
  check "p99 of 1..100" 99. (Quant.rank s 99.);
  check "p100 of 1..100" 100. (Quant.rank s 100.);
  check "p0 of 1..100" 1. (Quant.rank s 0.);
  check "p1 of 1..100" 1. (Quant.rank s 1.);
  check "median of unsorted" 3. (Quant.median [| 5.; 1.; 3.; 4.; 2. |]);
  check "median of even count" 2. (Quant.median [| 4.; 1.; 3.; 2. |]);
  check "single sample" 7. (Quant.percentile [| 7. |] 99.);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Quant.percentile [||] 50.));
  check "mean" 2.5 (Quant.mean [| 1.; 2.; 3.; 4. |]);
  let b = Quant.buf () in
  for i = 10_000 downto 1 do Quant.add b (float_of_int i) done;
  Alcotest.(check int) "buffer grows" 10_000 (Quant.count b);
  check "p99.9 of 10000" 9990. (Quant.percentile (Quant.to_array b) 99.9)

let test_deepest () =
  let d n = Quant.deepest n in
  Alcotest.(check (option (float 0.))) "19 samples" None (d 19);
  Alcotest.(check (option (float 0.))) "20 samples" (Some 50.) (d 20);
  Alcotest.(check (option (float 0.))) "1000 samples" (Some 99.) (d 1000);
  Alcotest.(check (option (float 0.))) "9999 samples" (Some 99.) (d 9999);
  Alcotest.(check (option (float 0.))) "10000 samples" (Some 99.9) (d 10_000)

let test_metric_names () =
  let names = List.map fst (Metric.end_to_end @ Metric.per_layer) in
  List.iter (fun n -> Alcotest.(check bool) (n ^ " is valid") true (Metric.valid_name n)) names;
  Alcotest.(check int) "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  List.iter
    (fun n -> Alcotest.(check bool) (n ^ " is refused") false (Metric.valid_name n))
    [ ""; "_x"; "a b"; "p50/us"; "lat(ms)"; String.make 65 'a' ]

let test_render () =
  let catalogue = [ ("a", "s"); ("b.c", "count") ] in
  Alcotest.(check string) "result line"
    "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"a\": {\"value\": 0.5, \"unit\": \"s\"}, \"b.c\": {\"value\": 2, \"unit\": \"count\"}}}"
    (Metric.render ~correct:true ~attempted:3 ~failed:0 ~catalogue [ ("a", 0.5); ("b.c", 2.) ]);
  Alcotest.check_raises "a missing metric is refused"
    (Invalid_argument "Metric.render: values do not match the catalogue") (fun () ->
      ignore (Metric.render ~correct:true ~attempted:1 ~failed:0 ~catalogue [ ("a", 0.5) ]))

(* BENCHMARK.json declares exactly the catalogue the driver prints. *)
let test_benchmark_json () =
  let module J = Obs.Json in
  let text = In_channel.with_open_text "../BENCHMARK.json" In_channel.input_all in
  let j = match J.parse text with Ok j -> j | Error m -> Alcotest.fail m in
  let declared key =
    match Option.bind (J.member key j) J.to_arr with
    | None -> Alcotest.failf "no %s" key
    | Some l ->
      List.map
        (fun m ->
          (Option.get (J.str_member "name" m), Option.get (J.str_member "unit" m)))
        l
  in
  Alcotest.(check (list (pair string string))) "end_to_end" Metric.end_to_end (declared "end_to_end");
  Alcotest.(check (list (pair string string))) "per_layer" Metric.per_layer (declared "per_layer");
  let names =
    List.map
      (fun m -> Option.get (J.str_member "name" m))
      (Option.get (Option.bind (J.member "workloads" j) J.to_arr))
  in
  Alcotest.(check (list string)) "workloads" (List.map Gen.workload_name workloads) names

let () =
  Alcotest.run "perfbench"
    [
      ( "streams",
        [
          Alcotest.test_case "same seed, same bytes" `Quick test_same_seed_same_stream;
          Alcotest.test_case "other seed, other bytes" `Quick test_other_seed_other_stream;
          Alcotest.test_case "generator pinned" `Quick test_generator_pinned;
          Alcotest.test_case "workload shapes" `Quick test_stream_shapes;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "known arrays" `Quick test_quantiles;
          Alcotest.test_case "deepest supported percentile" `Quick test_deepest;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "names" `Quick test_metric_names;
          Alcotest.test_case "result line" `Quick test_render;
          Alcotest.test_case "BENCHMARK.json" `Quick test_benchmark_json;
        ] );
    ]
