(* Writes the snapshot + WAL fixture into DIR with the encoder it is
   linked against, then recovers a copy into a fresh system and dumps the
   recovered state as fixture.recovered.mlds:

     gen_fixture.exe DIR

   The log covers every kind of frame and value: generation markers,
   frames a checkpoint stamp covers (skipped on replay), committed,
   aborted and unterminated transactions, KEYED/REPLACE/DELETE/UPDATE
   frames, quotes, empty strings, NULL, floats, negative ints, a record of
   many attributes, and a torn last frame. fixture.transcript is the
   output of scripts/wal_fixture.sh's REPL run over the same files. *)
let v_int i = Abdm.Value.Int i
let v_str s = Abdm.Value.Str s
let kw = Abdm.Keyword.make

let rec_ id fields =
  Abdm.Record.make (Abdm.Keyword.file "item" :: kw "id" (v_int id) :: fields)

let q_id id =
  Abdm.Query.conj
    [ Abdm.Predicate.file_eq "item";
      Abdm.Predicate.make "id" Abdm.Predicate.Eq (v_int id) ]

let ok = function Ok x -> x | Error m -> failwith m

let () =
  let dir = Sys.argv.(1) in
  let snap = Filename.concat dir "fixture.mlds" in
  let wal_file = snap ^ ".wal" in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ snap; wal_file ];
  let sys = Mlds.System.create () in
  ok (Mlds.System.define_relational sys ~name:"fixture");
  let wal = ok (Mlds.System.attach_wal sys ~db:"fixture" ~file:wal_file) in
  let k = Option.get (Mlds.System.kernel_of sys "fixture") in
  let ins r = ignore (Mapping.Kernel.insert k r) in
  (* generation 0: values of every kind *)
  ins (rec_ 1 [ kw "name" (v_str "O'Brien"); kw "qty" (v_int (-42)) ]);
  ins (rec_ 2 [ kw "name" (v_str ""); kw "price" (Abdm.Value.Float 2.5);
                kw "note" Abdm.Value.Null ]);
  ins (rec_ 3 [ kw "name" (v_str "''quoted'' text, with <angle> (parens)");
                kw "price" (Abdm.Value.Float (-0.125));
                kw "big" (v_int 4611686018427387903) ]);
  ins (rec_ 4 (List.init 12 (fun i -> kw (Printf.sprintf "a%02d" i) (v_int (i * i - 20)))));
  ignore (Mapping.Kernel.update k (q_id 1)
            [ Abdm.Modifier.Set_arith ("qty", Abdm.Modifier.Add, v_int 100) ]);
  ins (rec_ 11 [ kw "name" (v_str "deleted before the checkpoint") ]);
  ignore (Mapping.Kernel.delete k (q_id 11));
  (* a checkpoint: the snapshot takes generation 0, the log restarts *)
  ok (Mlds.Persist.checkpoint sys ~db:"fixture" ~file:snap);
  (* generation 1: a committed transaction, an aborted one, a replace *)
  Mapping.Kernel.begin_transaction k;
  ins (rec_ 5 [ kw "name" (v_str "txn'd"); kw "qty" (v_int 0) ]);
  ins (rec_ 6 [ kw "name" (v_str "x"); kw "price" (Abdm.Value.Float 1024.75) ]);
  ins (rec_ 12 [ kw "name" (v_str "deleted after the stamp") ]);
  Mapping.Kernel.commit k;
  Mapping.Kernel.begin_transaction k;
  ins (rec_ 7 [ kw "name" (v_str "rolled back") ]);
  Mapping.Kernel.rollback k;
  let key3 = fst (List.hd (Mapping.Kernel.select k (q_id 3))) in
  Mapping.Kernel.replace k key3 (rec_ 3 [ kw "name" (v_str "replaced'"); kw "note" Abdm.Value.Null ]);
  ignore (Mapping.Kernel.update k (q_id 5)
            [ Abdm.Modifier.Set_const ("name", v_str "it's set") ]);
  (* a checkpoint that dies between the durable snapshot and the log
     truncation: the stamp must make replay skip the covered frames *)
  Mlds.Persist.inject_checkpoint_crash ();
  (match Mlds.Persist.checkpoint sys ~db:"fixture" ~file:snap with
   | Error _ -> ()
   | Ok () -> failwith "checkpoint crash did not fire");
  (* past the stamp: replayed *)
  ins (rec_ 8 [ kw "name" (v_str "after the stamp"); kw "qty" (v_int (-1)) ]);
  ignore (Mapping.Kernel.update k (q_id 1)
            [ Abdm.Modifier.Set_arith ("qty", Abdm.Modifier.Mul, v_int 2) ]);
  ignore (Mapping.Kernel.delete k (q_id 12));
  (* an unterminated transaction, then a torn frame *)
  Mapping.Kernel.begin_transaction k;
  ins (rec_ 9 [ kw "name" (v_str "never committed") ]);
  Mlds.Wal.arm_failpoint wal ~after_appends:1 Mlds.Wal.Crash_mid_frame;
  (match ins (rec_ 10 [ kw "name" (v_str "torn") ]) with
   | () -> failwith "failpoint did not fire"
   | exception Mlds.Wal.Crash _ -> ());
  (* recover a copy (recovery trims the torn tail in place) and dump *)
  let copy = Filename.concat dir "copy.mlds" in
  let cp src dst =
    let ic = open_in_bin src in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    let oc = open_out_bin dst in
    output_string oc s; close_out oc in
  cp snap copy; cp wal_file (copy ^ ".wal");
  let sys_b = Mlds.System.create () in
  let o = ok (Mlds.Persist.load_report sys_b ~file:copy) in
  let r = Option.get o.Mlds.Persist.recovery in
  Printf.printf "frames=%d applied=%d dropped=%d skipped=%d torn=%b\n"
    r.Mlds.Persist.frames r.applied r.dropped r.skipped r.torn;
  let text = ok (Mlds.Persist.dump sys_b ~db:"fixture") in
  let oc = open_out_bin (Filename.concat dir "fixture.recovered.mlds") in
  output_string oc text; close_out oc;
  Sys.remove copy; Sys.remove (copy ^ ".wal")
