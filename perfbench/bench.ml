(* The benchmark driver: starts the shipped mlds_server as a separate
   process, loads a workload's data over the wire, drives the server in a
   closed loop through [Client] and prints one JSON result line last.

     bench.exe --workload point-read|ingest|multilingual --seed N
               --seconds S --trace 0|1 [--cpu C --allowed LIST --nproc N]

   perfbench/run.py builds the tree, pins this process (and so the server
   it spawns) to one CPU and passes that choice in, to be recorded. With
   --trace 0 the result carries the end-to-end metrics, with --trace 1
   the per-layer metrics of a traced run (Metric has both catalogues,
   perfbench/README.md what each means). A failed reply or end-of-run
   check prints the result with "correct": false and exits 1; a broken
   set-up exits 2 without a result. *)

open Perfbench

let die fmt = Printf.ksprintf (fun m -> prerr_endline ("perfbench: " ^ m); exit 2) fmt

(* --- arguments ---------------------------------------------------------- *)

type args = {
  workload : Gen.workload;
  seed : int;
  seconds : float;
  trace : bool;
  cpu : string;
  allowed : string;
  nproc : int;
}

let parse_args () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None and cpu = ref "unpinned" and allowed = ref "unknown" in
  let nproc = ref (Domain.recommended_domain_count ()) in
  let int_arg name v =
    match int_of_string_opt v with Some n -> n | None -> die "bad %s %S" name v
  in
  let rec go = function
    | "--workload" :: v :: rest ->
      (match Gen.workload_of_string v with
      | Some w -> workload := Some w
      | None -> die "unknown workload %S" v);
      go rest
    | "--seed" :: v :: rest -> seed := Some (int_arg "--seed" v); go rest
    | "--seconds" :: v :: rest ->
      (match float_of_string_opt v with
      | Some s when s > 0. -> seconds := Some s
      | _ -> die "bad --seconds %S" v);
      go rest
    | "--trace" :: "0" :: rest -> trace := Some false; go rest
    | "--trace" :: "1" :: rest -> trace := Some true; go rest
    | "--cpu" :: v :: rest -> cpu := v; go rest
    | "--allowed" :: v :: rest -> allowed := v; go rest
    | "--nproc" :: v :: rest -> nproc := int_arg "--nproc" v; go rest
    | [] -> ()
    | a :: _ -> die "unexpected argument %S" a
  in
  go (List.tl (Array.to_list Sys.argv));
  let need name = function Some v -> v | None -> die "missing or bad %s" name in
  {
    workload = need "--workload" !workload;
    seed = need "--seed" !seed;
    seconds = need "--seconds" !seconds;
    trace = need "--trace" !trace;
    cpu = !cpu;
    allowed = !allowed;
    nproc = !nproc;
  }

(* --- small helpers ------------------------------------------------------ *)

(* Monotonic seconds at nanosecond resolution: gettimeofday's microsecond
   steps would quantise the sub-microsecond layer timings to zero. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let us x = x *. 1e6

(* The first index at or after [i] where [sub] occurs in [s]; no
   allocation, since ingest scans 30 KB replies with it. *)
let rec find s sub i =
  let n = String.length s and m = String.length sub in
  let rec at j = j = m || (s.[i + j] = sub.[j] && at (j + 1)) in
  if i + m > n then None else if at 0 then Some i else find s sub (i + 1)

let contains s sub = find s sub 0 <> None

let occurrences s sub =
  let rec go i acc =
    match find s sub i with Some j -> go (j + String.length sub) (acc + 1) | None -> acc
  in
  if sub = "" then 0 else go 0 0

let clip s = if String.length s <= 300 then s else String.sub s 0 300 ^ "..."

(* A reply is correct when it is a text reply (not a typed or transport
   error), carries no interface error (statement-level errors arrive as
   successful text marked "***"), and holds what each statement must
   produce. *)
let reply_ok (op : Gen.op) = function
  | Error _ -> false
  | Ok out ->
    (not (contains out "***"))
    && (op.expect = ""
       || if op.stmts = 1 then contains out op.expect
          else occurrences out op.expect = op.stmts)

let ratio x y = if y <= 0. then 0. else x /. y

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path

let fresh_dir path =
  rm_rf path;
  Unix.mkdir path 0o755

(* The filesystem type holding [path]: the longest mount point prefixing
   its real path in /proc/self/mountinfo. *)
let fs_type path =
  let real = try Unix.realpath path with Unix.Unix_error _ -> path in
  let under mp = mp = "/" || real = mp || String.starts_with ~prefix:(mp ^ "/") real in
  let rec after_dash = function "-" :: t :: _ -> Some t | _ :: r -> after_dash r | [] -> None in
  match In_channel.with_open_text "/proc/self/mountinfo" In_channel.input_all with
  | exception Sys_error _ -> "unknown"
  | text ->
    String.split_on_char '\n' text
    |> List.fold_left
         (fun (best, ty) line ->
           match String.split_on_char ' ' line with
           | _ :: _ :: _ :: _ :: mp :: rest when under mp && String.length mp > best ->
             (String.length mp, Option.value ~default:ty (after_dash rest))
           | _ -> (best, ty))
         (-1, "unknown")
    |> snd

(* Peak resident set of a live process, in MiB (VmHWM). *)
let peak_rss_mb pid =
  let status = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text status In_channel.input_all with
  | exception Sys_error _ -> die "cannot read %s" status
  | text ->
    (match
       List.find_map
         (fun l -> Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.))
         (String.split_on_char '\n' text)
     with
    | Some mb -> mb
    | None -> die "no VmHWM in %s" status)

(* --- the server process ------------------------------------------------- *)

(* Everything a run writes lives here, inside the checkout. *)
let run_root = ".perfbench-run"

type server = { pid : int; port : int; dir : string; wal : string }

let live = ref []

let server_binary () =
  let dir = Filename.dirname Sys.executable_name in
  let bin = Filename.concat dir "../bin/mlds_server.exe" in
  if Sys.file_exists bin then bin else die "cannot find mlds_server.exe near %s" dir

(* Per-workload server flags. The multilingual server's MBDS runs its
   backends sequentially, the server's own choice on one CPU, stated so
   it does not hang on the runtime's CPU count: on one CPU the domain
   pool only adds a hand-off per backend request, about a thousand per
   Daplex scan, and their cost swings with the host's load. *)
let server_flags = function
  | Gen.Point_read -> []
  | Gen.Ingest -> [ "--checkpoint-every-bytes"; "12000000" ]
  | Gen.Multilingual -> [ "--backends"; "2"; "--parallel"; "false" ]

(* The readiness line carries the bound port (the server runs with
   --port 0). Polled at a fine grain: it is inside the timed set-up. *)
let wait_listening ~log pid =
  let key = "listening on " in
  let deadline = now () +. 30. in
  let rec go () =
    let text = try In_channel.with_open_text log In_channel.input_all with Sys_error _ -> "" in
    let port =
      String.split_on_char '\n' text
      |> List.find_opt (fun l -> contains l key)
      |> Fun.flip Option.bind (fun line ->
             Option.bind (String.rindex_opt line ':') (fun i ->
                 int_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))))
    in
    match port with
    | Some p -> p
    | None ->
      if fst (Unix.waitpid [ Unix.WNOHANG ] pid) <> 0 then
        die "mlds_server exited during start-up, see %s" log;
      if now () > deadline then die "mlds_server never came up, see %s" log;
      Unix.sleepf 0.002;
      go ()
  in
  go ()

let spawn w ~tag =
  let dir = Filename.concat run_root tag in
  fresh_dir dir;
  let log = Filename.concat dir "server.out" and wal = Filename.concat dir "university.wal" in
  let bin = server_binary () in
  (* --max-seconds: a server this driver failed to stop still exits *)
  let argv = [ bin; "--port"; "0"; "--wal"; wal; "--max-seconds"; "175" ] @ server_flags w in
  let fd = Unix.openfile log Unix.[ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let pid = Unix.create_process bin (Array.of_list argv) Unix.stdin fd fd in
  Unix.close fd;
  live := pid :: !live;
  { pid; port = wait_listening ~log pid; dir; wal }

let kill_and_wait pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ()

(* SIGKILL: a sub-run takes its numbers before it stops the server, so
   there is nothing to drain, and a shutdown checkpoint would only write
   a snapshot under the next sub-run. *)
let stop s =
  live := List.filter (( <> ) s.pid) !live;
  kill_and_wait s.pid;
  rm_rf s.dir

let () = at_exit (fun () -> List.iter kill_and_wait !live)

(* --- clients ------------------------------------------------------------ *)

let connect s =
  match Client.connect ~port:s.port () with Ok c -> c | Error m -> die "connect: %s" m

let login c lang =
  match Client.login c ~language:lang ~db:"university" () with
  | Ok _ -> ()
  | Error e -> die "login %s: %s" lang (Client.error_to_string e)

let relogin c lang =
  (match Client.logout c with Ok () -> () | Error e -> die "logout: %s" (Client.error_to_string e));
  login c lang

(* What a run wrote: acknowledged rows per file (for the end-of-run COUNT
   checks) and the payload bytes of every acknowledged insert. *)
type ledger = { acked : (string, int) Hashtbl.t; mutable payload : int }

let ledger () = { acked = Hashtbl.create 8; payload = 0 }

let credit led (op : Gen.op) =
  led.payload <- led.payload + op.payload;
  Option.iter
    (fun file ->
      Hashtbl.replace led.acked file
        (op.stmts + Option.value ~default:0 (Hashtbl.find_opt led.acked file)))
    op.file

let merge_ledger ~into led =
  Hashtbl.iter
    (fun f n -> Hashtbl.replace into.acked f (n + Option.value ~default:0 (Hashtbl.find_opt into.acked f)))
    led.acked;
  into.payload <- into.payload + led.payload

(* A set-up statement: it must succeed. *)
let run_checked c led (op : Gen.op) =
  let r = Client.submit c op.text in
  if not (reply_ok op r) then
    die "set-up statement failed: %s -> %s" (clip op.text)
      (match r with Ok s -> clip s | Error e -> Client.error_to_string e);
  credit led op

(* --- set-up ------------------------------------------------------------- *)

type live_run = { srv : server; conns : Client.t array; langs : string array; led : ledger }

(* Spawn, reach readiness, load the data over the wire, warm up. *)
let setup a ~tag =
  let w = a.workload in
  let srv = spawn w ~tag in
  let led = ledger () in
  let conns = Array.init (Gen.connections w) (fun _ -> connect srv) in
  let langs = Array.make (Array.length conns) (Gen.load_language w) in
  Array.iter (fun c -> login c (Gen.load_language w)) conns;
  List.iter (run_checked conns.(0) led) (Gen.setup_ops w ~seed:a.seed);
  Array.iteri
    (fun i c ->
      List.iter
        (fun (op : Gen.op) ->
          if op.lang <> langs.(i) then (relogin c op.lang; langs.(i) <- op.lang);
          run_checked c led op)
        (Gen.warmup_ops w ~seed:a.seed ~conn:i))
    conns;
  { srv; conns; langs; led }

(* --- the timed window --------------------------------------------------- *)

(* A span: one client call, or one layer call in the replay. Kept in
   memory during the run, written out at its end. *)
type span = { name : string; t0 : float; t1 : float; parent : int; req : int }

(* The acknowledged requests of a window: latencies unboxed in [dt],
   and per sample one [tag] byte naming its language and kind, so the
   driver's own heap and GC stay small next to the server it shares a
   CPU with. *)
type window = {
  dt : Quant.buf;
  tag : Buffer.t;
  mutable stmts : int;
  mutable write_stmts : int;
  mutable failed : int;
  mutable first_failure : string option;
  mutable elapsed : float;  (* the window minus untimed session switches *)
  mutable spans : span list;
  led : ledger;
}

let empty_window () =
  {
    dt = Quant.buf (); tag = Buffer.create 4096; stmts = 0; write_stmts = 0; failed = 0;
    first_failure = None; elapsed = 0.; spans = []; led = ledger ();
  }

let lang_index lang =
  let rec go i = if Gen.languages.(i) = lang then i else go (i + 1) in
  go 0

let tag_of lang kind = Char.chr ((2 * lang_index lang) + if kind = Gen.Write then 1 else 0)

let record win (op : Gen.op) dt =
  Quant.add win.dt dt;
  Buffer.add_char win.tag (tag_of op.lang op.kind);
  win.stmts <- win.stmts + op.stmts;
  if op.kind = Gen.Write then win.write_stmts <- win.write_stmts + op.stmts

let merge_into dst src =
  Array.iter (Quant.add dst.dt) (Quant.to_array src.dt);
  Buffer.add_buffer dst.tag src.tag;
  dst.stmts <- dst.stmts + src.stmts;
  dst.write_stmts <- dst.write_stmts + src.write_stmts;
  dst.failed <- dst.failed + src.failed;
  if dst.first_failure = None then dst.first_failure <- src.first_failure;
  dst.spans <- List.rev_append src.spans dst.spans;
  merge_ledger ~into:dst.led src.led

(* One connection's closed loop: the next statement goes out only after
   the reply to the previous one has arrived. *)
let drive ~traced ~deadline run i next win mutex =
  let c = run.conns.(i) in
  let mine = empty_window () in
  let switched = ref 0. and req = ref 0 in
  let t_start = now () in
  let t_end = ref t_start in
  while now () < deadline do
    let (op : Gen.op) = next () in
    if op.lang <> run.langs.(i) then begin
      let s0 = now () in
      relogin c op.lang;
      run.langs.(i) <- op.lang;
      switched := !switched +. (now () -. s0)
    end;
    let t0 = now () in
    let r = Client.submit c op.text in
    let t1 = now () in
    incr req;
    if traced then
      mine.spans <- { name = "client.submit." ^ op.lang; t0; t1; parent = -1; req = !req } :: mine.spans;
    if reply_ok op r then begin
      record mine op (t1 -. t0);
      credit mine.led op
    end
    else begin
      mine.failed <- mine.failed + 1;
      if mine.first_failure = None then
        mine.first_failure <-
          Some
            (Printf.sprintf "%s -> %s" (clip op.text)
               (match r with Ok s -> clip s | Error e -> Client.error_to_string e))
    end;
    t_end := t1
  done;
  Mutex.protect mutex (fun () ->
      merge_into win mine;
      win.elapsed <- Float.max win.elapsed (!t_end -. t_start -. !switched))

(* Drive every connection of [run] for [seconds], each from its own
   seeded stream (continued across windows through [streams]). *)
let window ~traced ~seconds run streams =
  let win = empty_window () in
  let mutex = Mutex.create () in
  let deadline = now () +. seconds in
  (match streams with
  | [| next |] ->
    (* no thread for one connection: a threaded driver also runs the
       runtime's tick thread, one more wake-up on the shared CPU *)
    drive ~traced ~deadline run 0 next win mutex
  | _ ->
    Array.mapi (fun i next -> Thread.create (fun () -> drive ~traced ~deadline run i next win mutex) ()) streams
    |> Array.iter Thread.join);
  merge_ledger ~into:run.led win.led;
  win

let ok win = Quant.count win.dt

(* Statements per second (an ingest request carries a batch of them). *)
let throughput win =
  float_of_int win.stmts /. win.elapsed

(* The latencies of the samples whose tag [keep] accepts. *)
let latencies ?(keep = fun _ -> true) win =
  let dt = Quant.to_array win.dt and tags = Buffer.contents win.tag in
  let out = Quant.buf () in
  Array.iteri (fun i d -> if keep tags.[i] then Quant.add out d) dt;
  Quant.to_array out

let is_lang l tag = Char.code tag / 2 = lang_index l

let is_write tag = Char.code tag land 1 = 1

(* p50 of a subset, 0 when the workload has no such requests. *)
let p50_of ?keep win =
  let a = latencies ?keep win in
  if Array.length a = 0 then 0. else Quant.median a

(* --- end-of-run checks -------------------------------------------------- *)

(* Each file the run inserted into holds exactly its acknowledged rows. *)
let check_counts run =
  let c = connect run.srv in
  login c "abdl";
  let failures =
    Hashtbl.fold
      (fun file n acc ->
        let q, want = Gen.count_check ~file n in
        match Client.submit c q with
        | Ok out when List.mem want (List.map String.trim (String.split_on_char '\n' out)) -> acc
        | Ok out ->
          let last = List.hd (List.rev (String.split_on_char '\n' (String.trim out))) in
          Printf.sprintf "%s: want %s, got %s" file want (clip (String.trim last)) :: acc
        | Error e -> Printf.sprintf "%s: %s" file (Client.error_to_string e) :: acc)
      run.led.acked []
  in
  Client.close c;
  failures

(* --- the server's Stats counters ----------------------------------------- *)

(* One instrument of a Stats reply: counters and gauges carry a value,
   histograms a count and a sum (rebuilt from the reply's 9-digit mean). *)
type stat = { v : float; n : float; sum : float; gauge : bool }

let stats_of run =
  let module J = Obs.Json in
  let c = connect run.srv in
  let text =
    match Client.stats c with Ok t -> t | Error e -> die "stats: %s" (Client.error_to_string e)
  in
  Client.close c;
  let tbl = Hashtbl.create 128 in
  (match Result.map (J.member "metrics") (J.parse text) with
  | Ok (Some (J.Arr samples)) ->
    List.iter
      (fun s ->
        let num k = Option.value ~default:0. (J.num_member k s) in
        let put name st = Hashtbl.replace tbl name st in
        match (J.str_member "name" s, J.str_member "type" s) with
        | Some name, Some "counter" -> put name { v = num "value"; n = 0.; sum = 0.; gauge = false }
        | Some name, Some "gauge" -> put name { v = num "value"; n = 0.; sum = 0.; gauge = true }
        | Some name, Some "histogram" ->
          put name { v = 0.; n = num "count"; sum = num "count" *. num "mean"; gauge = false }
        | _ -> ())
      samples
  | _ -> die "unexpected Stats reply: %s" (clip text));
  tbl

let zero = { v = 0.; n = 0.; sum = 0.; gauge = false }

let stat tbl name = Option.value ~default:zero (Hashtbl.find_opt tbl name)

(* What a window changed, as a table of the same shape; [add_into] sums
   the changes of several windows. Gauges are levels, so both keep the
   later one. *)
let delta ~before ~after =
  let d = Hashtbl.create 128 in
  Hashtbl.iter
    (fun name a ->
      let b = stat before name in
      Hashtbl.replace d name
        (if a.gauge then a else { a with v = a.v -. b.v; n = a.n -. b.n; sum = a.sum -. b.sum }))
    after;
  d

let add_into acc d =
  Hashtbl.iter
    (fun name x ->
      let y = stat acc name in
      Hashtbl.replace acc name
        (if x.gauge then x else { x with v = x.v +. y.v; n = x.n +. y.n; sum = x.sum +. y.sum }))
    d

(* A mean over no observations is reported as 0: the layer did no such
   work in this workload. Rebuilt sums can round below 0; clamp them. *)
let mean_of d name =
  let s = stat d name in
  if s.n <= 0. then 0. else Float.max 0. (s.sum /. s.n)

(* --- the in-process replay ----------------------------------------------- *)

let parser_of = function
  | "abdl" -> fun s -> ignore (Abdl.Parser.transaction s)
  | "daplex" -> fun s -> ignore (Daplex_dml.Parser.program s)
  | "codasyl" -> fun s -> ignore (Codasyl_dml.Parser.program s)
  | "sql" -> fun s -> ignore (Relational.Sql_parser.program s)
  | "dli" -> fun s -> ignore (Hierarchical.Dli_parser.program s)
  | l -> invalid_arg ("parser_of " ^ l)

(* What a replay measured. [encode] to [submit_own] cover the workload's
   own statements; the per-language tables also hold the probes. *)
type replay = {
  encode : Quant.buf;
  decode : Quant.buf;
  classify : Quant.buf;
  req_bytes : Quant.buf;
  reply_bytes : Quant.buf;
  submit_own : Quant.buf;
  submit : (string, Quant.buf) Hashtbl.t;
  parse : (string, Quant.buf) Hashtbl.t;
  kreq : (string, Quant.buf) Hashtbl.t;
  mutable wal_bytes_per_write : float;
  mutable rspans : span list;  (* newest first *)
  mutable nspans : int;
}

let per tbl lang =
  match Hashtbl.find_opt tbl lang with
  | Some b -> b
  | None ->
    let b = Quant.buf () in
    Hashtbl.add tbl lang b;
    b

let h_kernel = Obs.Metrics.histogram "abdm.request_s"

let kernel_now () =
  let st = Obs.Metrics.histogram_stats h_kernel in
  (st.Obs.Metrics.n, st.Obs.Metrics.sum)

(* Time spent in WAL appends, accumulated by the timing shim [replay]
   puts around the kernel's WAL hook. *)
let wal_append_s = ref 0.

(* One statement through the layers the server runs it through, each
   timed from outside: the wire codec both ways, classification, the
   language's public parser, and submit_handle in a WAL group bracket,
   with three children: the kernel time the store's own histogram
   accumulated meanwhile, the WAL appends, and the covering sync. *)
let replay_one rp ~sys ~own ~req h (op : Gen.op) =
  let module W = Server.Wire in
  let id = rp.nspans in
  let sp name t0 t1 parent =
    rp.rspans <- { name; t0; t1; parent; req } :: rp.rspans;
    rp.nspans <- rp.nspans + 1
  in
  let frame msg = { W.version = W.protocol_version; request_id = req; session_id = 1; msg } in
  let r0 = now () in
  let bytes = W.encode_request (frame (W.Submit op.text)) in
  let e1 = now () in
  ignore (W.decode_request bytes);
  let d1 = now () in
  ignore (Mlds.System.classify_handle h op.text);
  let c1 = now () in
  (* a statement the parser refuses fails submit_handle just below *)
  (try parser_of op.lang op.text with _ -> ());
  let kn0, ks0 = kernel_now () in
  let a0 = !wal_append_s in
  let p1 = now () in
  (* bracketed like a server batch: one covering fsync per request *)
  Mlds.System.wal_group_begin sys;
  let out = Mlds.System.submit_handle h op.text in
  let g0 = now () in
  (match Mlds.System.wal_group_end sys with Ok () -> () | Error m -> die "replay fsync: %s" m);
  let s1 = now () in
  let kn1, ks1 = kernel_now () in
  if not (reply_ok op out) then
    die "replay statement failed: %s -> %s" (clip op.text)
      (match out with Ok s -> clip s | Error e -> Mlds.System.handle_error_to_string e);
  let x0 = now () in
  let rbytes = W.encode_response (frame (W.Output (Result.get_ok out))) in
  let x1 = now () in
  ignore (W.decode_response rbytes);
  let x2 = now () in
  Quant.add (per rp.parse op.lang) (p1 -. c1);
  Quant.add (per rp.submit op.lang) (s1 -. p1);
  Quant.add (per rp.kreq op.lang) (float_of_int (kn1 - kn0) /. float_of_int op.stmts);
  if own then begin
    Quant.add rp.encode (e1 -. r0 +. (x1 -. x0));
    Quant.add rp.decode (d1 -. e1 +. (x2 -. x1));
    Quant.add rp.classify (c1 -. d1);
    Quant.add rp.req_bytes (float_of_int (String.length bytes));
    Quant.add rp.reply_bytes (float_of_int (String.length rbytes));
    Quant.add rp.submit_own (s1 -. p1)
  end;
  sp "replay.stmt" r0 x2 (-1);
  sp "wire.encode" r0 e1 id;
  sp "wire.decode" e1 d1 id;
  sp "lil.classify" d1 c1 id;
  sp (op.lang ^ ".parse") c1 p1 id;
  sp ("lil.submit." ^ op.lang) p1 s1 id;
  sp "abdm.request" p1 (p1 +. (ks1 -. ks0)) (id + 5);
  sp "wal.append" p1 (p1 +. (!wal_append_s -. a0)) (id + 5);
  sp "wal.sync" g0 s1 (id + 5);
  sp "wire.encode" x0 x1 id;
  sp "wire.decode" x1 x2 id

(* Replays the workload's seeded streams in-process against a system with
   the server's data, kernel topology and an fsync'd WAL, then probes the
   language interfaces the workload leaves unmeasured: course lookups in
   ABDL, Daplex, CODASYL-DML and SQL on the same database, and DL/I on a
   hierarchical database defined here, since the server preloads only
   'university'. *)
let replay a ~budget_s =
  let w = a.workload in
  let dir = Filename.concat run_root (Printf.sprintf "replay-%d" (Unix.getpid ())) in
  fresh_dir dir;
  let sys =
    match w with
    | Gen.Multilingual -> Mlds.System.create ~backends:2 ~parallel:false ()
    | _ -> Mlds.System.create ()
  in
  (match
     Mlds.System.define_functional sys ~name:"university" ~ddl:Daplex.University.ddl
       Daplex.University.rows
   with
  | Ok () -> ()
  | Error m -> die "replay preload: %s" m);
  let wal =
    match Mlds.System.attach_wal sys ~db:"university" ~file:(Filename.concat dir "university.wal") with
    | Ok wal -> wal
    | Error m -> die "replay WAL: %s" m
  in
  (match Option.bind (Mlds.System.kernel_of sys "university") (fun k ->
             Option.map (fun hook -> (k, hook)) (Mapping.Kernel.wal_hook k)) with
  | Some (kernel, append) ->
    Mapping.Kernel.set_wal_hook kernel
      (Some
         (fun ev ->
           let t0 = now () in
           append ev;
           wal_append_s := !wal_append_s +. (now () -. t0)))
  | None -> die "replay: no WAL hook on 'university'");
  let handles = Hashtbl.create 8 in
  let handle ?(db = "university") lang =
    match Hashtbl.find_opt handles (db, lang) with
    | Some h -> h
    | None ->
      (match Mlds.System.open_handle sys (Option.get (Mlds.System.language_of_string lang)) ~db with
      | Ok h -> Hashtbl.add handles (db, lang) h; h
      | Error m -> die "replay handle %s: %s" lang m)
  in
  let exec ?db (op : Gen.op) =
    let out = Mlds.System.submit_handle (handle ?db op.lang) op.text in
    if not (reply_ok op out) then
      die "replay set-up failed: %s -> %s" (clip op.text)
        (match out with Ok s -> clip s | Error e -> Mlds.System.handle_error_to_string e)
  in
  List.iter exec (Gen.setup_ops w ~seed:a.seed);
  for conn = 0 to Gen.connections w - 1 do
    List.iter exec (Gen.warmup_ops w ~seed:a.seed ~conn)
  done;
  let rp =
    {
      encode = Quant.buf (); decode = Quant.buf (); classify = Quant.buf ();
      req_bytes = Quant.buf (); reply_bytes = Quant.buf (); submit_own = Quant.buf ();
      submit = Hashtbl.create 8; parse = Hashtbl.create 8; kreq = Hashtbl.create 8;
      wal_bytes_per_write = 0.; rspans = []; nspans = 0;
    }
  in
  let streams = Array.init (Gen.connections w) (fun conn -> Gen.stream w ~seed:a.seed ~conn) in
  let pos0 = Mlds.Wal.position wal in
  let writes = ref 0 and req = ref 0 in
  let deadline = now () +. budget_s in
  while now () < deadline && !req < 20_000 do
    Array.iter
      (fun next ->
        let (op : Gen.op) = next () in
        incr req;
        if op.kind = Gen.Write then writes := !writes + op.stmts;
        replay_one rp ~sys ~own:true ~req:!req (handle op.lang) op)
      streams
  done;
  rp.wal_bytes_per_write <- ratio (float_of_int (Mlds.Wal.position wal - pos0)) (float_of_int !writes);
  let r = Gen.rng a.seed ~stream:300 in
  let titles = Array.of_list (Gen.course_titles w ~seed:a.seed) in
  Array.iter
    (fun lang ->
      if not (Hashtbl.mem rp.submit lang) then
        for _ = 1 to 64 do
          incr req;
          replay_one rp ~sys ~own:false ~req:!req (handle lang)
            (Gen.lookup lang titles.(Gen.int r (Array.length titles)))
        done)
    Gen.languages;
  (match Mlds.System.define_hierarchical sys ~name:"clinic" ~ddl:Gen.clinic_ddl with
  | Ok () -> ()
  | Error m -> die "replay clinic: %s" m);
  exec ~db:"clinic" (Gen.clinic_load ~seed:a.seed);
  for _ = 1 to 64 do
    incr req;
    replay_one rp ~sys ~own:false ~req:!req (handle ~db:"clinic" "dli")
      (Gen.clinic_lookup (Gen.int r Gen.clinic_patients))
  done;
  Hashtbl.iter (fun _ h -> Mlds.System.close_handle h) handles;
  Mlds.System.detach_wal sys ~db:"university";
  rm_rf dir;
  rp

(* --- reporting ------------------------------------------------------------ *)

(* Exact quantiles with their support: each line names its sample count
   and the deepest percentile that has at least ten samples beyond it. *)
let report_latency label a =
  let s = Quant.sorted a in
  let n = Array.length s in
  if n > 0 then
    Printf.printf "  %-8s n=%-7d p50=%.1fus p90=%.1fus p99=%.1fus deepest=%s\n" label n
      (us (Quant.rank s 50.)) (us (Quant.rank s 90.)) (us (Quant.rank s 99.))
      (match Quant.deepest n with
      | Some p -> Printf.sprintf "p%g=%.1fus" p (us (Quant.rank s p))
      | None -> "none")

let report_window name win =
  Printf.printf "%s: %d ok, %d failed in %.3fs, %.1f statements/s\n" name (ok win) win.failed
    win.elapsed (throughput win);
  report_latency "all" (latencies win);
  report_latency "read" (latencies ~keep:(fun t -> not (is_write t)) win);
  report_latency "write" (latencies ~keep:is_write win);
  Array.iter (fun l -> report_latency l (latencies ~keep:(is_lang l) win)) Gen.languages;
  Option.iter (Printf.printf "  FAILED reply: %s\n") win.first_failure

let noise_line a =
  Printf.printf
    "noise: workload=%s seed=%d cpu=%s allowed=%s nproc=%d wal_fs=%s \
     fsync=on-commit,group-commit(server default) ocaml=%s seconds=%g trace=%d\n%!"
    (Gen.workload_name a.workload) a.seed a.cpu a.allowed a.nproc (fs_type run_root)
    Sys.ocaml_version a.seconds (if a.trace then 1 else 0)

let write_spans a spans =
  let path = Filename.concat run_root (Printf.sprintf "trace-%s.jsonl" (Gen.workload_name a.workload)) in
  Out_channel.with_open_text path (fun oc ->
      List.iteri
        (fun i s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start\":%.9f,\"end\":%.9f,\"parent\":%d,\"request\":%d}\n" i
            s.name s.t0 s.t1 s.parent s.req)
        spans);
  path

(* Self time per span name: each span's duration minus its children's.
   [spans] is in id order; a parent is an index into it. *)
let self_times spans =
  let arr = Array.of_list spans in
  let child = Array.make (Array.length arr) 0. in
  Array.iter (fun s -> if s.parent >= 0 then child.(s.parent) <- child.(s.parent) +. (s.t1 -. s.t0)) arr;
  let tbl = Hashtbl.create 16 in
  Array.iteri
    (fun i s ->
      let n, tot, self = Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (n + 1, tot +. (s.t1 -. s.t0), self +. (s.t1 -. s.t0 -. child.(i))))
    arr;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])

let print_metrics metrics =
  List.iter
    (fun (n, v) -> Printf.printf "  %-36s %16.4f %s\n" n v (List.assoc n (Metric.end_to_end @ Metric.per_layer)))
    metrics

(* --- the two runs --------------------------------------------------------- *)

(* A run is [sub_runs] sub-runs, each on a fresh server: set-up (timed),
   its share of the window, the end-of-run checks, stop. Fresh servers
   keep ingest's memory bounded; pooling the windows makes the run long
   enough to average over the host's slower swings; the set-ups give
   setup_s as a median. *)
let sub_runs = 5

let pool wins =
  let p = empty_window () in
  List.iter (fun w -> merge_into p w; p.elapsed <- p.elapsed +. w.elapsed) wins;
  p

type sub = {
  setup_s : float;
  base : window;  (* untraced *)
  traced : window option;
  changes : (string, stat) Hashtbl.t;  (* the server's counters over [traced] *)
  rss : float;  (* after set-up *)
  rss_end : float;  (* after the window *)
  stored : int;
  payload : int;
  checkpoints : float;
  failures : string list;
}

let sub_run a k =
  let w = a.workload in
  let t0 = now () in
  let run = setup a ~tag:(Printf.sprintf "%s-%d-%d" (Gen.workload_name w) (Unix.getpid ()) k) in
  let setup_s = now () -. t0 in
  (* memory for the loaded, warmed data set: ingest's window grows the
     store by as many rows as the host's speed allows, so a peak taken
     after it moves with throughput, not with the program *)
  let rss = peak_rss_mb run.srv.pid in
  let streams = Array.init (Gen.connections w) (fun conn -> Gen.stream ~base:(100 + (10 * k)) w ~seed:a.seed ~conn) in
  let share = a.seconds /. float_of_int sub_runs in
  let base, traced, changes =
    if not a.trace then (window ~traced:false ~seconds:share run streams, None, Hashtbl.create 1)
    else
      let base = window ~traced:false ~seconds:(share /. 2.) run streams in
      let before = stats_of run in
      let traced = window ~traced:true ~seconds:(share /. 2.) run streams in
      (base, Some traced, delta ~before ~after:(stats_of run))
  in
  let rss_end = peak_rss_mb run.srv.pid in
  let stored = file_size run.srv.wal + file_size (run.srv.wal ^ ".snapshot") in
  let failures = check_counts run in
  let checkpoints = (stat (stats_of run) "server.checkpoint.total").v in
  Array.iter Client.close run.conns;
  stop run.srv;
  { setup_s; base; traced; changes; rss; rss_end; stored; payload = run.led.payload; checkpoints; failures }

let end_to_end subs =
  let win = pool (List.map (fun s -> s.base) subs) in
  let sum f = float_of_int (List.fold_left (fun n s -> n + f s) 0 subs) in
  let median f = Quant.median (Array.of_list (List.map f subs)) in
  [
    ("throughput_ops_s", throughput win);
    ("p50_us", us (p50_of win));
    ("setup_s", median (fun s -> s.setup_s));
    ("server_rss_mb", median (fun s -> s.rss));
    ("stored_bytes_per_user_byte", ratio (sum (fun s -> s.stored)) (sum (fun s -> s.payload)));
  ]

(* The traced run's layers: the server's counters over the traced
   windows, the client's own spans, and the in-process replay. *)
let per_layer a subs =
  let base = pool (List.map (fun s -> s.base) subs) in
  let traced = pool (List.filter_map (fun s -> s.traced) subs) in
  let d = Hashtbl.create 128 in
  List.iter (fun s -> add_into d s.changes) subs;
  let rp = replay a ~budget_s:3. in
  report_window "untraced halves" base;
  report_window "traced halves" traced;
  (* replay spans first: their parent links are indexes into this list *)
  let spans = List.rev rp.rspans @ List.sort (fun x y -> compare x.t0 y.t0) traced.spans in
  Printf.printf "spans: %d written to %s; per name:\n" (List.length spans) (write_spans a spans);
  List.iter
    (fun (name, (n, tot, self)) ->
      Printf.printf "  %-24s n=%-7d total=%.2fms self=%.2fms\n" name n (tot *. 1e3) (self *. 1e3))
    (self_times spans);
  let v name = (stat d name).v and m = mean_of d in
  let plans = v "abdm.plan.index" +. v "abdm.plan.file_scan" +. v "abdm.plan.store_scan" in
  let hits = v "stmt_cache.hit" in
  let p50 b = if Quant.count b = 0 then 0. else Quant.median (Quant.to_array b) in
  let mean b = if Quant.count b = 0 then 0. else Quant.mean (Quant.to_array b) in
  let langs f = List.map f Metric.languages in
  let all = latencies base in
  [
    ("wire.encode_us", us (p50 rp.encode));
    ("wire.decode_us", us (p50 rp.decode));
    ("wire.request_bytes", mean rp.req_bytes);
    ("wire.reply_bytes", mean rp.reply_bytes);
    ("server.edge_us", us (Quant.median all -. p50 rp.submit_own));
    ("server.batch_size_mean", m "server.batch_size");
    ("server.read_run_len_mean", m "server.read_run_len");
    ("server.rejected", v "server.rejected_total");
    ("server.shed", v "server.shed_total");
    ("lil.classify_us", us (p50 rp.classify));
    ("stmt_cache.hit_ratio", ratio hits (hits +. v "stmt_cache.miss"));
  ]
  @ langs (fun l -> ("lil.submit_us." ^ l, us (p50 (per rp.submit l))))
  @ langs (fun l -> (l ^ ".parse_us", us (p50 (per rp.parse l))))
  @ langs (fun l -> (l ^ ".kernel_requests_per_stmt", mean (per rp.kreq l)))
  @ [
      ("abdm.request_us", us (m "abdm.request_s"));
      ("abdm.plan.index_ratio", ratio (v "abdm.plan.index") plans);
      ("abdm.plan.residual_ratio", m "abdm.plan.residual_ratio");
      ("mbds.pool.queue_wait_us", us (m "pool.queue_wait_s"));
      ("mbds.pool.execute_us", us (m "pool.execute_s"));
      ("wal.append_us", us (m "wal.append_s"));
      ("wal.fsync_us", us (m "wal.fsync_s"));
      ("wal.fsyncs_per_write", ratio (stat d "wal.fsync_s").n (float_of_int traced.write_stmts));
      ("wal.group_commit_size_mean", m "wal.group_commit_size");
      ("wal.bytes_per_write", rp.wal_bytes_per_write);
      ("checkpoint.count", v "server.checkpoint.total");
      ("checkpoint.duration_ms", 1e3 *. m "server.checkpoint.duration_s");
      ("checkpoint.reclaimed_bytes", v "server.checkpoint.reclaimed_bytes");
      ("obs.trace_overhead_pct", 100. *. (throughput base -. throughput traced) /. throughput base);
      ("client.p99_us", us (Quant.percentile all 99.));
      ("client.read_p50_us", us (p50_of ~keep:(fun t -> not (is_write t)) base));
      ("client.write_p50_us", us (p50_of ~keep:is_write base));
    ]
  @ List.map
      (fun l -> ("client." ^ l ^ "_p50_us", us (p50_of ~keep:(is_lang l) base)))
      (Array.to_list Gen.languages)
  @ [ ("client.error_rate", ratio (float_of_int base.failed) (float_of_int (ok base + base.failed))) ]

let () =
  let a = parse_args () in
  if not (Sys.file_exists run_root) then Unix.mkdir run_root 0o755;
  noise_line a;
  let subs = List.init sub_runs (sub_run a) in
  let win = pool (List.concat_map (fun s -> s.base :: Option.to_list s.traced) subs) in
  let failures = List.concat_map (fun s -> s.failures) subs in
  let catalogue, metrics =
    if a.trace then (Metric.per_layer, per_layer a subs)
    else begin
      report_window "timed windows" win;
      List.iteri
        (fun k s ->
          Printf.printf
            "  sub-run %d: setup=%.4fs rss=%.1fMiB (%.1fMiB after the window) checkpoints=%.0f \
             stored=%dB payload=%dB\n"
            k s.setup_s s.rss s.rss_end s.checkpoints s.stored s.payload)
        subs;
      (Metric.end_to_end, end_to_end subs)
    end
  in
  Printf.printf "  error_rate=%g\n" (ratio (float_of_int win.failed) (float_of_int (ok win + win.failed)));
  List.iter (Printf.printf "  FAILED check: %s\n") failures;
  print_metrics metrics;
  let correct = win.failed = 0 && failures = [] && ok win > 0 in
  print_endline
    (Metric.render ~correct ~attempted:(ok win + win.failed) ~failed:win.failed ~catalogue metrics);
  exit (if correct then 0 else 1)
