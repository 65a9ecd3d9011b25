type config = {
  host : string;
  port : int;
  queue_capacity : int;
  idle_timeout_s : float;
  reap_every_s : float;
  send_timeout_s : float;
  batch : bool;
  max_batch : int;
  group_window_s : float;
  read_workers : int;
  shards : int;
  executor_hook : (unit -> unit) option;
  recorder_capacity : int;
  slow_log_capacity : int;
  slow_threshold_s : float;
  checkpoint_path : string option;
  checkpoint_every_bytes : int;
  checkpoint_every_s : float;
  checkpoint_slice_records : int;
  shed_p99_target_s : float;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    queue_capacity = 64;
    idle_timeout_s = 300.;
    reap_every_s = 5.;
    send_timeout_s = 10.;
    batch = true;
    max_batch = 32;
    (* roughly a dozen fsyncs' worth: long enough for every busy client
       to get a commit into the group, short enough to stay well under
       human-visible latency *)
    group_window_s = 0.002;
    (* capped like the MBDS shared pool; 1 on a single-core box, which
       disables the read pool (runs stay inline on the executor) *)
    read_workers = min 8 (Domain.recommended_domain_count ());
    (* one executor shard = the serial executor of old. More shards pay
       off when sessions spread over more than one database: each shard
       owns a subset of the databases and runs its own batch loop, so
       two shards' WAL fsyncs overlap instead of convoying *)
    shards = 1;
    executor_hook = None;
    (* the flight recorder: last 4096 requests, lock-free; 0 disables *)
    recorder_capacity = 4096;
    slow_log_capacity = 128;
    (* requests at or over this land in the slow-query log with their
       statement and captured plan *)
    slow_threshold_s = 0.100;
    (* online checkpointing: None = snapshot beside the WAL; both
       triggers default off (shutdown-only checkpointing, as before) *)
    checkpoint_path = None;
    checkpoint_every_bytes = 0;
    checkpoint_every_s = 0.;
    checkpoint_slice_records = 512;
    (* latency-target limiter: 0 disables shedding *)
    shed_p99_target_s = 0.;
  }

type conn = {
  c_id : int;
  fd : Unix.file_descr;
  peer : string;
  write_mx : Mutex.t;
  mutable alive : bool;
}

type job =
  (* the float is the arrival timestamp (decode time on the reader
     thread): queue-resident time for the limiter and honest reject /
     shed latencies in the flight recorder *)
  | J_request of conn * Wire.request Wire.frame * float
  | J_disconnect of conn
  | J_reap
  | J_barrier
      (* a wake token the global lane pushes when it wants the shards
         quiesced: carries no work, only gets a shard out of a blocking
         pop so it reaches its parking check *)

(* Work for the global lane: everything that cannot be pinned to one
   shard because it spans databases or reads other shards' state —
   telemetry over all session tables, the checkpoint state machine,
   injected replication closures. The lane quiesces every shard (the
   epoch barrier) before running any of it. *)
type gjob =
  | G_request of conn * Wire.request Wire.frame * float
  | G_task of (unit -> unit)
  | G_tick  (* heartbeat: re-check the checkpoint triggers *)

(* An online checkpoint in flight on the global lane: begun under the
   barrier, advanced one bounded slice at a time (rendered on the read
   pool when one exists), finished (snapshot + WAL truncate) under the
   barrier when the capture is drained. Waiters are \checkpoint clients
   whose reply is withheld until the checkpoint is durable. *)
type ckpt_state = {
  ck : Mlds.Persist.ckpt;
  ck_file : string;
  ck_started_s : float;
  ck_pos_before : int;  (* WAL position at capture *)
  mutable ck_waiters : (conn * Wire.request Wire.frame) list;
}

(* One executor shard: its own bounded queue, its own session table, its
   own batch loop thread. A database is owned by exactly one shard
   (first-login assignment, round-robin), so all mutations of one
   database execute serially on its owner — exactly the old single
   executor, narrowed to a subset of the databases. *)
type shard = {
  sh_id : int;
  sh_queue : job Bounded_queue.t;
  sh_sessions : Sessions.t;
  sh_g_depth : Obs.Metrics.gauge;
  sh_h_batch : Obs.Metrics.histogram;
  (* current batch id (drawn from the server-wide sequence), stamped
     into recorder events *)
  mutable sh_batch : int;
  (* shard-owned rolling window of request sojourn times feeding the
     latency-target limiter *)
  lat_window : float array;
  mutable lat_count : int;
  mutable sh_thread : Thread.t option;
}

type t = {
  cfg : config;
  sys : Mlds.System.t;
  shards : shard array;
  (* session id -> owning shard, written at login on the owning shard
     (before the login reply is released), erased on every close path;
     read by connection reader threads to route frames *)
  routes : (int, int) Hashtbl.t;
  routes_mx : Mutex.t;
  (* database -> owning shard: first-seen assignment, round-robin, never
     reassigned *)
  db_shards : (string, int) Hashtbl.t;
  db_mx : Mutex.t;
  mutable next_db_shard : int;
  (* reads run asynchronously (snapshot-pinned, on the pool) only when a
     real pool exists; otherwise runs execute inline at their serial
     point — barrier semantics, no pins needed *)
  async_reads : bool;
  (* dedicated domains for concurrent read runs. Deliberately NOT
     Mbds.Pool.shared: a parallel MBDS controller inside a read awaits
     shared-pool futures, and awaiting those from a shared-pool worker
     could deadlock — the two tiers' workers must stay disjoint. *)
  read_pool : Mbds.Pool.t option;
  listener : Unix.file_descr;
  bound_port : int;
  conns : (int, conn) Hashtbl.t;
  conns_mx : Mutex.t;
  mutable next_conn : int;
  recorder : Obs.Recorder.t option;
  started_s : float;
  (* server-wide batch id sequence; each shard draws its next id here *)
  batch_seq : int Atomic.t;
  draining : bool Atomic.t;
  stopped : bool Atomic.t;
  reaper_stop : bool Atomic.t;
  on_drain : unit -> unit;
  mutable accept_thread : Thread.t option;
  mutable global_thread : Thread.t option;
  mutable reaper_thread : Thread.t option;
  shutdown_mx : Mutex.t;
  (* the global lane's own (unbounded-control) queue *)
  gqueue : gjob Bounded_queue.t;
  (* the epoch barrier: the global lane raises [quiesce], wakes every
     shard with a J_barrier token, and waits until each is parked (or
     retired, i.e. its loop exited at shutdown) *)
  gl_mx : Mutex.t;
  gl_cond : Condition.t;
  quiesce : bool Atomic.t;
  mutable parked : int;
  mutable retired : int;
  (* serializes on_durable invocations: shards and the global lane all
     publish durability points *)
  durable_mx : Mutex.t;
  (* global-lane-owned: the online-checkpoint state machine *)
  mutable ckpt : ckpt_state option;
  mutable last_ckpt_s : float;
  mutable last_ckpt_mark : int;  (* WAL position right after the last one *)
  mutable ckpt_rr : int;  (* round-robin cursor for slice offload *)
  (* --- the replication plane's hooks (all optional, all off by default) --- *)
  (* a warm standby refuses writes with Err Read_only until promoted *)
  read_only : bool Atomic.t;
  (* called right after each batch's covering fsync and after every
     finished checkpoint: the shipper publishes the durable WAL position
     to its sender threads from here *)
  mutable on_durable : (unit -> unit) option;
  (* bracket around the checkpoint's WAL truncation (true = entering the
     rename window, false = truncation published): the shipper stops
     reading chunks while fenced, so a chunk read can never interleave
     with the rename and ship bytes from the wrong file *)
  mutable truncate_fence : (bool -> unit) option;
  (* a standby introduced itself: take the raw socket (the reader thread
     exits; the shipper owns the descriptor from here on) *)
  mutable repl_hello :
    (Unix.file_descr -> peer:string -> gen:int -> pos:int -> boot:bool -> unit)
    option;
  (* \promote / SIGUSR1: finish applying, enable writes *)
  mutable promote_hook : (unit -> (string, string) result) option;
}

(* --- metrics ------------------------------------------------------------- *)

let g_queue_depth = Obs.Metrics.gauge "server.queue_depth"

let c_rejected = Obs.Metrics.counter "server.rejected_total"

let c_requests = Obs.Metrics.counter "server.requests_total"

let c_disconnects = Obs.Metrics.counter "server.disconnects_total"

let c_escalations = Obs.Metrics.counter "server.global_lane.escalations"

(* One latency histogram per opcode, resolved at the opcode's first
   request (so Stats lists only opcodes that occurred) and read from this
   table ever after: no name concatenation and no registry lock per
   request. Racing first requests resolve the same histogram. *)
let opcode_histograms = Array.init 0x10 (fun _ -> Atomic.make None)

let h_opcode msg =
  let slot = opcode_histograms.(Wire.request_opcode msg) in
  match Atomic.get slot with
  | Some h -> h
  | None ->
    let h =
      Obs.Metrics.histogram ("server.request." ^ Wire.opcode_name msg ^ "_s")
    in
    Atomic.set slot (Some h);
    h

let h_batch =
  Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
    "server.batch_size"

let c_slow = Obs.Metrics.counter "server.slow_queries_total"

let c_shed = Obs.Metrics.counter "server.shed_total"

let c_ckpt = Obs.Metrics.counter "server.checkpoint.total"

let h_ckpt = Obs.Metrics.histogram "server.checkpoint.duration_s"

let g_ckpt_reclaimed = Obs.Metrics.gauge "server.checkpoint.reclaimed_bytes"

(* server.queue_depth stays the fleet total; each shard also exposes its
   own server.shard.<i>.queue_depth *)
let note_depth t =
  let total =
    Array.fold_left
      (fun acc sh ->
        let d = Bounded_queue.depth sh.sh_queue in
        Obs.Metrics.set_gauge sh.sh_g_depth (float_of_int d);
        acc + d)
      0 t.shards
  in
  Obs.Metrics.set_gauge g_queue_depth (float_of_int total)

(* --- shard routing -------------------------------------------------------- *)

(* A known database is assigned to a shard the first time a login names
   it, round-robin, and keeps that owner forever. Unknown names fall to
   shard 0 (whose login will produce the error) without polluting the
   assignment table. *)
let shard_of_db t db =
  let n = Array.length t.shards in
  if n = 1 then 0
  else begin
    Mutex.lock t.db_mx;
    let s =
      match Hashtbl.find_opt t.db_shards db with
      | Some s -> s
      | None ->
        if List.exists (fun (d, _) -> String.equal d db)
             (Mlds.System.databases t.sys)
        then begin
          let s = t.next_db_shard mod n in
          t.next_db_shard <- t.next_db_shard + 1;
          Hashtbl.replace t.db_shards db s;
          s
        end
        else 0
    in
    Mutex.unlock t.db_mx;
    s
  end

(* The shard's database set, captured once per batch so the same [only]
   filter brackets wal_group_begin and wal_group_end even if another
   login assigns a new database mid-batch. [None] = everything (the
   single-shard server, where the one shard covers all WALs). *)
let dbs_owned t sh_id =
  if Array.length t.shards = 1 then None
  else begin
    Mutex.lock t.db_mx;
    let dbs =
      Hashtbl.fold
        (fun db s acc -> if s = sh_id then db :: acc else acc)
        t.db_shards []
    in
    Mutex.unlock t.db_mx;
    Some dbs
  end

let register_route t ~session ~shard =
  if Array.length t.shards > 1 then begin
    Mutex.lock t.routes_mx;
    Hashtbl.replace t.routes session shard;
    Mutex.unlock t.routes_mx
  end

(* Routing on the reader thread: logins go to the named database's
   owner, everything else follows the session's route. A session with no
   route (bogus id, already closed) goes to a deterministic shard whose
   lookup produces the same unknown-session error any shard would. *)
let shard_for_frame t (frame : Wire.request Wire.frame) =
  let n = Array.length t.shards in
  if n = 1 then 0
  else
    match frame.Wire.msg with
    | Wire.Login { db; _ } -> shard_of_db t db
    | _ ->
      let id = frame.Wire.session_id in
      Mutex.lock t.routes_mx;
      let s = Hashtbl.find_opt t.routes id in
      Mutex.unlock t.routes_mx;
      (match s with Some s -> s | None -> ((id mod n) + n) mod n)

(* --- connection writes --------------------------------------------------- *)

(* Responses reach a connection from several threads — its own reader
   (Overloaded/Pong/Shutting_down), its shard, the global lane, and
   read-pool domains — so each write takes the connection's mutex. A
   failed write just marks the connection dead; its reader observes the
   broken socket and triggers the normal disconnect path. *)
let send conn (frame : Wire.response Wire.frame) =
  Mutex.lock conn.write_mx;
  (try
     if conn.alive then Wire.write_frame conn.fd (Wire.encode_response frame)
   with _ -> conn.alive <- false);
  Mutex.unlock conn.write_mx

let reply conn (req : 'a Wire.frame) ?session_id msg =
  send conn
    {
      Wire.version = Wire.protocol_version;
      request_id = req.Wire.request_id;
      session_id =
        (match session_id with Some id -> id | None -> req.Wire.session_id);
      msg;
    }

(* --- the executor -------------------------------------------------------- *)

let ack = function
  | Wire.Begin_txn -> "transaction started"
  | Wire.Commit_txn -> "transaction committed"
  | Wire.Abort_txn -> "transaction aborted"
  | _ -> "ok"

let response_of_handle_error (e : Mlds.System.handle_error) =
  let text = Mlds.System.handle_error_to_string e in
  match e with
  | Mlds.System.H_parse msg -> Wire.Err (Wire.Parse_error, msg)
  | Mlds.System.H_busy _ -> Wire.Err (Wire.Txn_busy, text)
  | Mlds.System.H_closed -> Wire.Err (Wire.Bad_session, text)
  | Mlds.System.H_no_txn | Mlds.System.H_txn_open ->
    Wire.Err (Wire.Exec_error, text)

let live_conns t =
  Mutex.lock t.conns_mx;
  let n = Hashtbl.length t.conns in
  Mutex.unlock t.conns_mx;
  n

let notify_durable t =
  match t.on_durable with
  | None -> ()
  | Some f ->
    Mutex.lock t.durable_mx;
    (try f () with _ -> ());
    Mutex.unlock t.durable_mx

(* --- the flight recorder -------------------------------------------------- *)

let outcome_of_msg = function
  | Wire.Err (kind, _) -> Obs.Recorder.O_error (Wire.err_kind_name kind)
  | Wire.Overloaded -> Obs.Recorder.O_rejected
  | Wire.Logged_in _ | Wire.Output _ | Wire.Pong | Wire.Goodbye ->
    Obs.Recorder.O_ok

(* Every completed request becomes one ring event — lock-free, so this
   is safe from shards, the global lane, read-pool domains, and reader
   threads (the Overloaded path). [?outcome] overrides the msg-derived
   outcome — the shed path sends [Overloaded] but records [O_shed] so
   dashboards can tell limiter drops from queue-full rejects. *)
let record_event ?outcome t (frame : Wire.request Wire.frame) ~session
    ~language ~latency_s ~msg ~batch =
  match t.recorder with
  | None -> ()
  | Some r ->
    ignore
      (Obs.Recorder.record r ~ts_s:(Obs.Clock.now_s ()) ~session
         ~request_id:frame.Wire.request_id ~language
         ~opcode:(Wire.opcode_name frame.Wire.msg)
         ~latency_s
         ~bytes_in:(Wire.request_size frame.Wire.msg)
         ~bytes_out:(Wire.response_size msg)
         ~outcome:
           (match outcome with Some o -> o | None -> outcome_of_msg msg)
         ~batch)

(* Requests at or over the threshold additionally land in the slow-query
   log, with the statement text and the planner's rendering captured
   right away — [explain] is pure, so re-planning here cannot perturb
   the data path, and the plan reflects the index directory as the slow
   request saw it. *)
let capture_slow t (frame : Wire.request Wire.frame) ~session ~language
    ~latency_s ~handle =
  match t.recorder with
  | None -> ()
  | Some r when latency_s < Obs.Recorder.slow_threshold_s r -> ()
  | Some r ->
    let opcode = Wire.opcode_name frame.Wire.msg in
    let statement, plan =
      match frame.Wire.msg, handle with
      | (Wire.Submit src | Wire.Explain src), Some h ->
        ( src,
          (match Mlds.System.explain_handle h src with
          | Ok p -> p
          | Error e ->
            "(plan unavailable: " ^ Mlds.System.handle_error_to_string e ^ ")")
        )
      | (Wire.Submit src | Wire.Explain src), None ->
        (src, "(plan unavailable: no session)")
      | _ -> ("(" ^ opcode ^ ")", "(nothing to explain)")
    in
    Obs.Metrics.incr c_slow;
    ignore
      (Obs.Recorder.record_slow r ~ts_s:(Obs.Clock.now_s ()) ~session
         ~request_id:frame.Wire.request_id ~language ~opcode ~latency_s
         ~statement ~plan
         ~span:
           (Printf.sprintf "server.request{opcode=%s,request=%d}" opcode
              frame.Wire.request_id))

(* --- telemetry responses (Stats / Tail) ----------------------------------- *)

let summary_json (s : Sessions.summary) =
  Printf.sprintf
    "{\"id\":%d,\"conn\":%d,\"user\":%s,\"language\":%s,\"db\":%s,\"idle_s\":%s}"
    s.Sessions.sum_id s.Sessions.sum_conn
    (Obs.Json.quote s.Sessions.sum_user)
    (Obs.Json.quote s.Sessions.sum_language)
    (Obs.Json.quote s.Sessions.sum_db)
    (Obs.Json.number s.Sessions.sum_idle_s)

(* Runs on the global lane with every shard quiesced — the only way one
   thread may read all the shard-owned session tables at once. *)
let stats_response t =
  let now = Obs.Clock.now_s () in
  let sessions_total =
    Array.fold_left (fun a sh -> a + Sessions.active sh.sh_sessions) 0 t.shards
  in
  let depth_total =
    Array.fold_left (fun a sh -> a + Bounded_queue.depth sh.sh_queue) 0 t.shards
  in
  let b = Buffer.create 2048 in
  let add = Buffer.add_string b in
  add
    (Printf.sprintf "{\"now\":%s,\"uptime_s\":%s,\"pid\":%d,"
       (Obs.Json.number now)
       (Obs.Json.number (now -. t.started_s))
       (Unix.getpid ()));
  add
    (Printf.sprintf
       "\"sessions\":%d,\"connections\":%d,\"queue_depth\":%d,\"queue_capacity\":%d,\"batch\":%b,\"max_batch\":%d,"
       sessions_total (live_conns t) depth_total t.cfg.queue_capacity t.cfg.batch
       t.cfg.max_batch);
  add "\"shards\":[";
  add
    (String.concat ","
       (Array.to_list
          (Array.map
             (fun sh ->
               Printf.sprintf
                 "{\"id\":%d,\"queue_depth\":%d,\"sessions\":%d,\"batches\":%d}"
                 sh.sh_id
                 (Bounded_queue.depth sh.sh_queue)
                 (Sessions.active sh.sh_sessions)
                 sh.sh_batch)
             t.shards)));
  add "],";
  (match t.recorder with
  | Some r ->
    add
      (Printf.sprintf
         "\"recorder\":{\"capacity\":%d,\"next_seq\":%d,\"slow_next_seq\":%d,\"slow_threshold_s\":%s},"
         (Obs.Recorder.capacity r) (Obs.Recorder.next_seq r)
         (Obs.Recorder.slow_next_seq r)
         (Obs.Json.number (Obs.Recorder.slow_threshold_s r)))
  | None -> add "\"recorder\":null,");
  add "\"session_list\":[";
  let summaries =
    Array.to_list t.shards
    |> List.concat_map (fun sh -> Sessions.summaries sh.sh_sessions ~now)
    |> List.sort (fun a b -> compare a.Sessions.sum_id b.Sessions.sum_id)
  in
  add (String.concat "," (List.map summary_json summaries));
  add "],\"metrics\":[";
  add
    (String.concat ","
       (List.map (fun s -> Obs.Export.sample_json s) (Obs.Metrics.snapshot ())));
  add "]}";
  Wire.Output (Buffer.contents b)

let tail_response t ~cursor ~slow_cursor ~max_events =
  match t.recorder with
  | None ->
    Wire.Err
      (Wire.Exec_error, "flight recorder disabled (recorder_capacity = 0)")
  | Some r ->
    let max_events =
      if max_events <= 0 then 512 else Stdlib.min max_events 4096
    in
    let events, cursor', dropped =
      Obs.Recorder.events_since r ~cursor ~max_events
    in
    let slow, slow_cursor', slow_dropped =
      Obs.Recorder.slow_since r ~cursor:slow_cursor
        ~max_events:(Stdlib.min max_events 256)
    in
    Wire.Output
      (Printf.sprintf
         "{\"cursor\":%d,\"dropped\":%d,\"events\":[%s],\"slow_cursor\":%d,\"slow_dropped\":%d,\"slow\":[%s]}"
         cursor' dropped
         (String.concat "," (List.map Obs.Recorder.event_json events))
         slow_cursor' slow_dropped
         (String.concat "," (List.map Obs.Recorder.slow_json slow)))

(* Compute (never send) the response to one frame — the serial path,
   running on the owning shard's thread against the shard's session
   table. *)
let compute_response t sh conn (frame : Wire.request Wire.frame) =
  let opcode = Wire.opcode_name frame.Wire.msg in
  Obs.Metrics.incr c_requests;
  let t0 = Obs.Clock.now_s () in
  let session_id = ref frame.Wire.session_id in
  (* the handle the request ran against, kept for the flight recorder
     (language tag) and the slow-query log (plan capture) *)
  let used_handle = ref None in
  let msg =
    Obs.Span.with_span "server.request"
      ~attrs:(fun () ->
        [
          "session", string_of_int frame.Wire.session_id;
          "opcode", opcode;
          "request", string_of_int frame.Wire.request_id;
          "peer", conn.peer;
        ])
      (fun () ->
        match frame.Wire.msg with
        | Wire.Login { user; language; db } ->
          (match
             Sessions.login sh.sh_sessions ~conn:conn.c_id ~user ~language ~db
           with
          | Ok entry ->
            session_id := entry.Sessions.id;
            used_handle := Some entry.Sessions.handle;
            (* route before the reply is released: the client can only
               name this session after reading the (withheld) reply *)
            register_route t ~session:entry.Sessions.id ~shard:sh.sh_id;
            Wire.Logged_in entry.Sessions.id
          | Error msg -> Wire.Err (Wire.Exec_error, msg))
        | Wire.Ping -> Wire.Pong
        | Wire.Bye -> Wire.Goodbye
        (* unreachable from a shard (the batch walk forwards telemetry
           and checkpoint ops to the global lane), but kept total for
           safety *)
        | Wire.Stats -> stats_response t
        | Wire.Tail { cursor; slow_cursor; max_events } ->
          tail_response t ~cursor ~slow_cursor ~max_events
        | Wire.Checkpoint ->
          Wire.Err (Wire.Bad_request, "checkpoint rides the global lane")
        (* both are answered on the connection's reader thread; defensive *)
        | Wire.Promote ->
          Wire.Err (Wire.Bad_request, "not a standby: nothing to promote")
        | Wire.Repl_hello _ ->
          Wire.Err (Wire.Bad_request, "replication not enabled on this server")
        | Wire.Submit _ | Wire.Explain _ | Wire.Begin_txn | Wire.Commit_txn
        | Wire.Abort_txn | Wire.Logout ->
          (match Sessions.find sh.sh_sessions frame.Wire.session_id with
          | None ->
            Wire.Err
              ( Wire.Bad_session,
                Printf.sprintf "unknown session %d" frame.Wire.session_id )
          (* Sessions are connection-scoped: ids are guessable small
             integers, so a frame naming a session opened on another
             connection is a hijack attempt, not a valid request. The
             reply deliberately matches the unknown-session error — it
             must not confirm that the id exists elsewhere. *)
          | Some entry when entry.Sessions.conn <> conn.c_id ->
            Wire.Err
              ( Wire.Bad_session,
                Printf.sprintf "unknown session %d" frame.Wire.session_id )
          | Some entry ->
            Sessions.touch entry;
            let handle = entry.Sessions.handle in
            used_handle := Some handle;
            (* the standby gate: reads flow (stale by the replication
               lag), anything that would mutate is refused with a typed
               error the client surfaces. Explain stays allowed (pure). *)
            let refused_read_only =
              Atomic.get t.read_only
              &&
              match frame.Wire.msg with
              | Wire.Submit src ->
                (match Mlds.System.classify_handle handle src with
                | `Read -> false
                | `Write -> true)
              | Wire.Begin_txn | Wire.Commit_txn | Wire.Abort_txn -> true
              | _ -> false
            in
            if refused_read_only then
              Wire.Err
                ( Wire.Read_only,
                  "standby is read-only: writes go to the primary (or \
                   promote this standby first)" )
            else (match frame.Wire.msg with
            | Wire.Submit src ->
              (match Mlds.System.submit_handle handle src with
              | Ok out -> Wire.Output out
              | Error e -> response_of_handle_error e)
            | Wire.Explain src ->
              (match Mlds.System.explain_handle handle src with
              | Ok out -> Wire.Output out
              | Error e -> response_of_handle_error e)
            | Wire.Begin_txn ->
              (match Mlds.System.begin_txn handle with
              | Ok () -> Wire.Output (ack Wire.Begin_txn)
              | Error e -> response_of_handle_error e)
            | Wire.Commit_txn ->
              (match Mlds.System.commit_txn handle with
              | Ok () -> Wire.Output (ack Wire.Commit_txn)
              | Error e -> response_of_handle_error e)
            | Wire.Abort_txn ->
              (match Mlds.System.abort_txn handle with
              | Ok () -> Wire.Output (ack Wire.Abort_txn)
              | Error e -> response_of_handle_error e)
            | Wire.Logout ->
              Sessions.close sh.sh_sessions entry;
              Wire.Goodbye
            | Wire.Login _ | Wire.Ping | Wire.Bye | Wire.Stats | Wire.Tail _
            | Wire.Checkpoint | Wire.Promote | Wire.Repl_hello _ ->
              assert false)))
  in
  let dt = Obs.Clock.since t0 in
  Obs.Metrics.observe (h_opcode frame.Wire.msg) dt;
  let language =
    match !used_handle with
    | Some h -> Mlds.System.language_to_string (Mlds.System.handle_language h)
    | None -> "-"
  in
  record_event t frame ~session:!session_id ~language ~latency_s:dt ~msg
    ~batch:sh.sh_batch;
  capture_slow t frame ~session:!session_id ~language ~latency_s:dt
    ~handle:!used_handle;
  !session_id, msg

(* --- the batch scheduler -------------------------------------------------- *)

(* A computed-but-unsent reply. [p_gated] marks responses whose effects
   must be durable before the client may see success: they are withheld
   until the batch's covering WAL fsync, and demoted to errors if that
   fsync fails — confirmed ⇒ durable, exactly as in serial mode.
   [p_seq] is the arrival position inside the batch; withheld replies go
   out sorted by it, which is arrival order. *)
type pending = {
  p_conn : conn;
  p_frame : Wire.request Wire.frame;
  p_session : int;
  p_msg : Wire.response;
  p_gated : bool;
  p_seq : int;
}

(* How a read task's reply leaves the server. [R_send]: straight from
   whichever pool domain finishes the task — the connection has nothing
   withheld and nothing else in flight, so FIFO cannot be violated.
   [R_collect seq]: the connection already has an earlier reply pending
   this batch, so the read's reply is collected at the await point and
   merged into the withheld delivery at its arrival position. *)
type read_mode =
  | R_send
  | R_collect of int

(* The read task body: everything session-table-related (lookup,
   ownership check, touch) already happened serially at classification
   time, and the snapshot (when one exists) was captured at that same
   serial point — so the task observes exactly the store epoch of its
   admission, never a later write, no matter when the pool runs it. *)
let read_task t ~batch conn (frame : Wire.request Wire.frame) handle src snap
    mode () =
  let opcode = Wire.opcode_name frame.Wire.msg in
  Obs.Metrics.incr c_requests;
  let t0 = Obs.Clock.now_s () in
  let msg =
    Obs.Span.with_span "server.request"
      ~attrs:(fun () ->
        [
          "session", string_of_int frame.Wire.session_id;
          "opcode", opcode;
          "request", string_of_int frame.Wire.request_id;
          "peer", conn.peer;
        ])
      (fun () ->
        try
          let submit () =
            (* pre-classified: the serial-point classification decided
               `Read; re-checking the live blocked-table here would
               wrongly refuse a read that precedes a concurrent BEGIN in
               the equivalent serial order *)
            match Mlds.System.submit_handle_preclassified handle src with
            | Ok out -> Wire.Output out
            | Error e -> response_of_handle_error e
          in
          match snap with
          | Some s -> Mlds.System.with_db_snapshot s submit
          | None -> submit ()
        with exn -> Wire.Err (Wire.Exec_error, Printexc.to_string exn))
  in
  let dt = Obs.Clock.since t0 in
  Obs.Metrics.observe (h_opcode frame.Wire.msg) dt;
  let language =
    Mlds.System.language_to_string (Mlds.System.handle_language handle)
  in
  record_event t frame ~session:frame.Wire.session_id ~language ~latency_s:dt
    ~msg ~batch;
  capture_slow t frame ~session:frame.Wire.session_id ~language ~latency_s:dt
    ~handle:(Some handle);
  match mode with
  | R_send ->
    reply conn frame msg;
    None
  | R_collect seq ->
    Some
      {
        p_conn = conn;
        p_frame = frame;
        p_session = frame.Wire.session_id;
        p_msg = msg;
        p_gated = false;
        p_seq = seq;
      }

(* Is this frame a read-only submission the scheduler may run
   concurrently? Resolved serially, on the shard thread: the session
   lookup, the connection-ownership check, the idle-touch and the
   snapshot capture all happen here, so the task itself touches no
   shared session state and reads a store epoch fixed at this instant. *)
let as_read t sh conn (frame : Wire.request Wire.frame) =
  match frame.Wire.msg with
  | Wire.Submit src ->
    (match Sessions.find sh.sh_sessions frame.Wire.session_id with
    | Some entry when entry.Sessions.conn = conn.c_id ->
      let handle = entry.Sessions.handle in
      (match Mlds.System.classify_handle handle src with
      | `Read ->
        Sessions.touch entry;
        let snap =
          if t.async_reads then
            Mlds.System.snapshot_db t.sys
              ~db:(Mlds.System.handle_db handle)
          else None
        in
        Some
          ( snap,
            fun mode ->
              read_task t ~batch:sh.sh_batch conn frame handle src snap mode )
      | `Write -> None)
    | Some _ | None -> None)
  | _ -> None

(* Killing a connection must be atomic with respect to [send]'s
   check-then-write: take [write_mx] so no writer can pass the [alive]
   check and then write to a closed (possibly reused) descriptor. *)
let kill_conn conn =
  Mutex.lock conn.write_mx;
  conn.alive <- false;
  (try Unix.close conn.fd with _ -> ());
  Mutex.unlock conn.write_mx

(* Returns whether this call was the one that removed the connection —
   disconnects are broadcast to every shard, and exactly one of them
   owns the removal (and the disconnect count). *)
let close_conn_fd t conn =
  Mutex.lock t.conns_mx;
  let mine = Hashtbl.mem t.conns conn.c_id in
  if mine then Hashtbl.remove t.conns conn.c_id;
  Mutex.unlock t.conns_mx;
  if mine then kill_conn conn;
  mine

(* Answer a telemetry op (Stats/Tail) in place. Stats reads every
   shard's session table, so it runs on the global lane under the
   barrier; Tail touches only the lock-free ring, so the connection's
   own reader thread calls this directly. In both cases polling cannot
   queue behind user traffic — and may therefore overtake data replies
   on the same connection; dashboards use a dedicated connection. *)
let answer_control t conn (frame : Wire.request Wire.frame) =
  let opcode = Wire.opcode_name frame.Wire.msg in
  Obs.Metrics.incr c_requests;
  let t0 = Obs.Clock.now_s () in
  let msg =
    Obs.Span.with_span "server.request"
      ~attrs:(fun () ->
        [
          "session", string_of_int frame.Wire.session_id;
          "opcode", opcode;
          "request", string_of_int frame.Wire.request_id;
          "peer", conn.peer;
        ])
      (fun () ->
        match frame.Wire.msg with
        | Wire.Stats -> stats_response t
        | Wire.Tail { cursor; slow_cursor; max_events } ->
          tail_response t ~cursor ~slow_cursor ~max_events
        | _ -> Wire.Err (Wire.Bad_request, "not a telemetry opcode"))
  in
  let dt = Obs.Clock.since t0 in
  Obs.Metrics.observe (h_opcode frame.Wire.msg) dt;
  record_event t frame ~session:frame.Wire.session_id ~language:"-"
    ~latency_s:dt ~msg ~batch:(Atomic.get t.batch_seq);
  reply conn frame msg

(* --- the latency-target limiter ------------------------------------------- *)

(* Shard-owned rolling window of request sojourn times (decode on the
   reader thread to pickup by the batch walk). Under overload the queue
   wait dominates end-to-end latency, so its p99 is the shed signal. *)
let note_latency sh sojourn_s =
  sh.lat_window.(sh.lat_count mod Array.length sh.lat_window) <- sojourn_s;
  sh.lat_count <- sh.lat_count + 1

let rolling_p99 sh =
  let n = Stdlib.min sh.lat_count (Array.length sh.lat_window) in
  if n = 0 then 0.
  else begin
    let a = Array.sub sh.lat_window 0 n in
    Array.sort compare a;
    a.(99 * (n - 1) / 100)
  end

(* Shed only when the window is warm, its p99 is over target, AND this
   request has itself been resident longer than half the target. The
   lateness gate keeps the limiter live: fresh requests still complete,
   refresh the window, and bring the p99 back down — a stale high window
   alone can never wedge the server into shedding everything. *)
let should_shed t sh ~sojourn =
  let target = t.cfg.shed_p99_target_s in
  target > 0.
  && sh.lat_count >= 16
  && sojourn > 0.5 *. target
  && rolling_p99 sh > target

(* --- online checkpointing -------------------------------------------------- *)

(* The database this server checkpoints: the first one with an attached
   WAL (the server binary attaches exactly one). *)
let checkpoint_target t =
  List.find_map
    (fun (db, _model) ->
      match Mlds.System.wal_of t.sys ~db with
      | Some wal -> Some (db, wal)
      | None -> None)
    (Mlds.System.databases t.sys)

(* Runs on the global lane under the barrier: the capture (record list,
   DDL, WAL generation/position stamp) is a consistent cut — every
   mutation executed before this instant is inside it, every one after
   lands in the WAL tail beyond the stamped position and survives the
   truncate. *)
let start_checkpoint t ~waiter =
  match checkpoint_target t with
  | None ->
    (match waiter with
    | Some (conn, frame) ->
      let msg =
        Wire.Err (Wire.Exec_error, "no WAL attached: nothing to checkpoint")
      in
      record_event t frame ~session:frame.Wire.session_id ~language:"-"
        ~latency_s:0. ~msg ~batch:(Atomic.get t.batch_seq);
      reply conn frame msg
    | None -> ())
  | Some (db, wal) ->
    let file =
      match t.cfg.checkpoint_path with
      | Some f -> f
      | None -> Mlds.Wal.path wal ^ ".snapshot"
    in
    (match Mlds.Persist.checkpoint_begin t.sys ~db ~file with
    | Ok ck ->
      t.ckpt <-
        Some
          {
            ck;
            ck_file = file;
            ck_started_s = Obs.Clock.now_s ();
            ck_pos_before = Mlds.Wal.position wal;
            ck_waiters = (match waiter with Some w -> [ w ] | None -> []);
          }
    | Error why ->
      (match waiter with
      | Some (conn, frame) ->
        let msg = Wire.Err (Wire.Exec_error, "checkpoint failed: " ^ why) in
        record_event t frame ~session:frame.Wire.session_id ~language:"-"
          ~latency_s:0. ~msg ~batch:(Atomic.get t.batch_seq);
        reply conn frame msg
      | None -> ()))

let finish_checkpoint t st =
  (* entering the truncation window: the shipper must not read WAL chunks
     while the file may be renamed under it *)
  (match t.truncate_fence with
  | Some f -> (try f true with _ -> ())
  | None -> ());
  let result = Mlds.Persist.checkpoint_finish st.ck in
  let now = Obs.Clock.now_s () in
  let dur = now -. st.ck_started_s in
  t.ckpt <- None;
  t.last_ckpt_s <- now;
  let reclaimed, msg =
    match result with
    | Ok () ->
      let after =
        match checkpoint_target t with
        | Some (_, wal) ->
          t.last_ckpt_mark <- Mlds.Wal.position wal;
          Mlds.Wal.position wal
        | None -> 0
      in
      let reclaimed = Stdlib.max 0 (st.ck_pos_before - after) in
      Obs.Metrics.incr c_ckpt;
      Obs.Metrics.observe h_ckpt dur;
      Obs.Metrics.set_gauge g_ckpt_reclaimed (float_of_int reclaimed);
      ( reclaimed,
        Wire.Output
          (Printf.sprintf
             "checkpoint complete: %s (reclaimed %d WAL bytes in %.3fs)"
             st.ck_file reclaimed dur) )
    | Error why -> (0, Wire.Err (Wire.Exec_error, "checkpoint failed: " ^ why))
  in
  (* the checkpoint's own flight-recorder trace (auto-triggered ones have
     no requesting frame): opcode "checkpoint", bytes_out = reclaimed *)
  (match t.recorder with
  | Some r when st.ck_waiters = [] ->
    ignore
      (Obs.Recorder.record r ~ts_s:now ~session:0 ~request_id:0 ~language:"-"
         ~opcode:"checkpoint" ~latency_s:dur ~bytes_in:0 ~bytes_out:reclaimed
         ~outcome:
           (match result with
           | Ok () -> Obs.Recorder.O_ok
           | Error e -> Obs.Recorder.O_error e)
         ~batch:(Atomic.get t.batch_seq))
  | Some _ | None -> ());
  List.iter
    (fun (conn, frame) ->
      record_event t frame ~session:frame.Wire.session_id ~language:"-"
        ~latency_s:dur ~msg ~batch:(Atomic.get t.batch_seq);
      reply conn frame msg)
    (List.rev st.ck_waiters);
  (* publish the post-truncation coordinates (new generation, remap
     entry) before lifting the fence, so an unfenced chunk read can only
     ever see a generation the shipper already knows about *)
  notify_durable t;
  match t.truncate_fence with
  | Some f -> (try f false with _ -> ())
  | None -> ()

let checkpoint_due t =
  (match t.ckpt with Some _ -> false | None -> true)
  && (not (Atomic.get t.draining))
  && (t.cfg.checkpoint_every_bytes > 0 || t.cfg.checkpoint_every_s > 0.)
  &&
  match checkpoint_target t with
  | None -> false
  | Some (_, wal) ->
    let pos = Mlds.Wal.position wal in
    let now = Obs.Clock.now_s () in
    (t.cfg.checkpoint_every_bytes > 0 && pos >= t.cfg.checkpoint_every_bytes)
    || t.cfg.checkpoint_every_s > 0.
       && now -. t.last_ckpt_s >= t.cfg.checkpoint_every_s
       && pos > t.last_ckpt_mark

(* --- the epoch barrier ----------------------------------------------------- *)

(* Raise the quiesce flag, wake every shard out of its blocking pop with
   a J_barrier token, and wait until each one is parked between batches
   (or retired — its loop exited at shutdown — so a drained server can
   never deadlock the lane). A parked shard holds no WAL in group mode,
   has no read run in flight, and sits between two serial points: the
   global lane sees (and may mutate) a fully serialized system. *)
let quiesce t =
  Atomic.set t.quiesce true;
  Array.iter
    (fun sh -> Bounded_queue.push_control sh.sh_queue J_barrier)
    t.shards;
  let n = Array.length t.shards in
  Mutex.lock t.gl_mx;
  while t.parked + t.retired < n do
    Condition.wait t.gl_cond t.gl_mx
  done;
  Mutex.unlock t.gl_mx

let resume t =
  Mutex.lock t.gl_mx;
  Atomic.set t.quiesce false;
  Condition.broadcast t.gl_cond;
  Mutex.unlock t.gl_mx

let with_quiesced t f =
  quiesce t;
  Fun.protect ~finally:(fun () -> resume t) f

(* Shard side: called between batches. The flag is set before the wake
   tokens are pushed, so a shard woken by a token always sees it. *)
let park_if_quiesced t =
  if Atomic.get t.quiesce then begin
    Mutex.lock t.gl_mx;
    t.parked <- t.parked + 1;
    Condition.broadcast t.gl_cond;
    while Atomic.get t.quiesce do
      Condition.wait t.gl_cond t.gl_mx
    done;
    t.parked <- t.parked - 1;
    Mutex.unlock t.gl_mx
  end

let retire_shard t =
  Mutex.lock t.gl_mx;
  t.retired <- t.retired + 1;
  Condition.broadcast t.gl_cond;
  Mutex.unlock t.gl_mx

(* --- executing one shard batch --------------------------------------------- *)

(* Execute one batch on shard [sh]: walk the jobs in arrival order,
   classifying lazily — consecutive reads from distinct sessions
   accumulate into a run that is {e dispatched} onto the read pool with
   each task pinned to the store epoch of its admission; everything else
   (writes, session control, disconnects, reaps) executes serially at
   its arrival position, {e concurrently with the dispatched run}: a
   write admitted at epoch E+1 neither blocks on nor is observed by a
   read pinned to epoch E. The old write-barrier read-pool flush
   survives only where it is still needed — same-session pipelining
   (per-session engine state is unsynchronised), snapshot-incapable
   databases (Multi kernels), and batch end.

   Mutation replies are withheld until the batch's single covering WAL
   fsync (confirmed ⇒ durable, exactly as in serial mode); read replies
   need no durability gate and stream out from the pool as their tasks
   complete — unless the connection already has a reply pending this
   batch, in which case the read reply is collected and merged into the
   withheld delivery at its arrival position, so per-connection FIFO
   holds. Withheld replies go out after the fsync in arrival order.

   While at least one reply is withheld, the batch stays open for a
   {e gathering window} (up to [group_window_s], capped at [max_batch]
   jobs): late arrivals are folded into the same batch so their commits
   share the covering fsync — the group-commit timer. Gathered reads
   still stream out immediately, so only writers (who must wait for the
   fsync regardless) pay the window; and once every connection that
   could still submit to this shard has a withheld reply, nobody is
   left, so the window closes early — in particular a single closed-loop
   client never waits it out.

   Results are byte-identical to serial execution in per-session order:
   reads commute with each other, every mutation of one database
   executes serially on its owning shard at its arrival position, and a
   pinned read observes exactly the epoch of its admission point. *)
let execute_batch t sh jobs =
  sh.sh_batch <- 1 + Atomic.fetch_and_add t.batch_seq 1;
  let only =
    match dbs_owned t sh.sh_id with
    | None -> fun _ -> true
    | Some dbs -> fun db -> List.mem db dbs
  in
  Mlds.System.wal_group_begin ~only t.sys;
  let seq = ref 0 in
  let next_seq () =
    incr seq;
    !seq
  in
  let replies = ref [] in (* withheld replies, ordered by p_seq at the end *)
  let blocked = Hashtbl.create 8 in (* conns with a withheld reply *)
  let run = ref [] in (* accumulating read tasks, reverse order *)
  let run_sessions = Hashtbl.create 8 in
  let run_conns = Hashtbl.create 8 in
  let run_sync = ref false in (* a task without a snapshot: barrier run *)
  (* the single in-flight dispatched run, and the sessions/conns whose
     reads it contains *)
  let inflight = ref None in
  let inflight_sessions = Hashtbl.create 8 in
  let inflight_conns = Hashtbl.create 8 in
  let collect ps =
    List.iter
      (function Some p -> replies := p :: !replies | None -> ())
      ps
  in
  let await_inflight () =
    match !inflight with
    | None -> ()
    | Some await ->
      inflight := None;
      Hashtbl.reset inflight_sessions;
      Hashtbl.reset inflight_conns;
      collect (await ())
  in
  let dispatch_run () =
    match List.rev !run with
    | [] -> ()
    | tasks ->
      (* one run in flight at a time: a new dispatch first collects the
         previous one *)
      await_inflight ();
      let sync = !run_sync in
      run := [];
      run_sync := false;
      Hashtbl.iter
        (fun k () -> Hashtbl.replace inflight_sessions k ())
        run_sessions;
      Hashtbl.iter (fun k () -> Hashtbl.replace inflight_conns k ()) run_conns;
      Hashtbl.reset run_sessions;
      Hashtbl.reset run_conns;
      let await = Batch.dispatch ?pool:t.read_pool tasks in
      inflight := Some await;
      (* a run with a snapshot-incapable task keeps the old barrier
         semantics: nothing else runs until it is done (with no pool,
         Batch.dispatch already ran it inline) *)
      if sync || not t.async_reads then await_inflight ()
  in
  let serial conn frame =
    dispatch_run ();
    (* same-session discipline: a serial op for a session whose read is
       still in flight (its engine state is unsynchronised, and Logout
       would close the handle under it) waits for the run *)
    if Hashtbl.mem inflight_sessions frame.Wire.session_id then
      await_inflight ();
    let session_id, msg =
      try compute_response t sh conn frame
      with exn ->
        frame.Wire.session_id, Wire.Err (Wire.Exec_error, Printexc.to_string exn)
    in
    Hashtbl.replace blocked conn.c_id ();
    replies :=
      {
        p_conn = conn;
        p_frame = frame;
        p_session = session_id;
        p_msg = msg;
        p_gated = true;
        p_seq = next_seq ();
      }
      :: !replies
  in
  let walk job =
    (match t.cfg.executor_hook with Some hook -> hook () | None -> ());
    match job with
    | J_barrier -> () (* wake token; the parking check runs between batches *)
    | J_request
        ( conn,
          ({ Wire.msg = Wire.Stats | Wire.Tail _ | Wire.Checkpoint; _ } as
           frame),
          arrival ) ->
      (* control ops ride the global lane; defensive (readers route them
         there directly) *)
      Bounded_queue.push_control t.gqueue (G_request (conn, frame, arrival))
    | J_request (conn, frame, arrival) ->
      let sojourn = Obs.Clock.now_s () -. arrival in
      note_latency sh sojourn;
      let sheddable =
        match frame.Wire.msg with
        | Wire.Submit _ | Wire.Explain _ -> true
        | _ -> false  (* never shed login / txn control: tiny, stateful *)
      in
      if sheddable && should_shed t sh ~sojourn then begin
        (* the limiter: queue admission let it in, but the server is past
           its latency target and this request is already late — shed it
           with a typed Overloaded rather than make everyone later *)
        Obs.Metrics.incr c_shed;
        record_event t frame ~outcome:Obs.Recorder.O_shed
          ~session:frame.Wire.session_id ~language:"-" ~latency_s:sojourn
          ~msg:Wire.Overloaded ~batch:sh.sh_batch;
        reply conn frame Wire.Overloaded
      end
      else (
        match as_read t sh conn frame with
        | Some (snap, mk_task) ->
          let sid = frame.Wire.session_id in
          (* two requests of one session never run concurrently: a
             pipelined duplicate splits the run and waits out the
             in-flight one (per-session engine state — currency, the
             UWA — is not synchronised) *)
          if Hashtbl.mem run_sessions sid then dispatch_run ();
          if Hashtbl.mem inflight_sessions sid then await_inflight ();
          let mode =
            (* self-send only when nothing earlier of this connection
               can still be undelivered; otherwise collect and merge at
               the arrival position *)
            if
              Hashtbl.mem blocked conn.c_id
              || Hashtbl.mem run_conns conn.c_id
              || Hashtbl.mem inflight_conns conn.c_id
            then R_collect (next_seq ())
            else R_send
          in
          (match snap with None -> run_sync := true | Some _ -> ());
          Hashtbl.replace run_sessions sid ();
          Hashtbl.replace run_conns conn.c_id ();
          run := mk_task mode :: !run
        | None -> serial conn frame)
    | J_disconnect conn ->
      (* a full serial point: sessions of this connection may have reads
         in flight, and closing their handles under a running read would
         race *)
      dispatch_run ();
      await_inflight ();
      (* the disconnect contract: sessions die with their connection,
         aborting any transaction left open. Broadcast to every shard;
         each closes its own sessions, exactly one removes the fd. *)
      Sessions.close_conn sh.sh_sessions ~conn:conn.c_id;
      if close_conn_fd t conn then Obs.Metrics.incr c_disconnects
    | J_reap ->
      dispatch_run ();
      await_inflight ();
      ignore
        (Sessions.reap_idle sh.sh_sessions ~now:(Unix.gettimeofday ())
           ~idle_timeout_s:t.cfg.idle_timeout_s)
  in
  List.iter walk jobs;
  dispatch_run ();
  (* the gathering window: whoever can still submit to this shard gets
     until the deadline (or the [max_batch] cap) to join this group's
     fsync *)
  let taken = ref (List.length jobs) in
  if t.cfg.batch && t.cfg.group_window_s > 0. then begin
    let deadline = Unix.gettimeofday () +. t.cfg.group_window_s in
    (* who could still submit here? On the single-shard server: every
       live connection (the old rule). With shards, connections of other
       shards never appear in [blocked], so bound the wait by this
       shard's own population (sessions ≈ connections) instead of
       spinning the full window on every multi-shard write batch. *)
    let bound () =
      if Array.length t.shards = 1 then live_conns t
      else
        Stdlib.min (live_conns t)
          (Stdlib.max 1 (Sessions.active sh.sh_sessions))
    in
    let gathering () =
      !taken < t.cfg.max_batch
      && Hashtbl.length blocked > 0
      && Hashtbl.length blocked < bound ()
      && Unix.gettimeofday () < deadline
    in
    while gathering () do
      match
        Bounded_queue.try_pop_batch sh.sh_queue ~max:(t.cfg.max_batch - !taken)
      with
      | [] -> Thread.delay 0.0001
      | more ->
        (* gathered jobs left the queue without a [pop_batch]: refresh
           the depth gauge here too, or it stays at the pre-gather depth
           until the next batch (forever, on a now-quiet server) *)
        note_depth t;
        taken := !taken + List.length more;
        List.iter walk more;
        dispatch_run ()
    done
  end;
  dispatch_run ();
  Obs.Metrics.observe h_batch (float_of_int !taken);
  Obs.Metrics.observe sh.sh_h_batch (float_of_int !taken);
  (* the durability point for the whole batch: one covering fsync per
     WAL this shard owns — two shards' fsyncs overlap instead of
     convoying. The fsync does not wait for the in-flight read run
     (reads need no durability); the run is collected right after, and
     only then do the withheld replies go out — on failure every gated
     success is demoted first: those commits may not be on disk, so the
     client must not see Ok. *)
  let fsync_failed =
    match Mlds.System.wal_group_end ~only t.sys with
    | Ok () -> None
    | Error msg -> Some msg
  in
  await_inflight ();
  List.iter
    (fun p ->
      let msg =
        match fsync_failed, p.p_gated, p.p_msg with
        | Some why, true, (Wire.Output _ | Wire.Logged_in _ | Wire.Goodbye) ->
          Wire.Err (Wire.Exec_error, why)
        | _ -> p.p_msg
      in
      reply p.p_conn p.p_frame ~session_id:p.p_session msg)
    (List.sort (fun a b -> compare a.p_seq b.p_seq) !replies);
  (* a serial point: build any indexes that pinned readers queued *)
  (match dbs_owned t sh.sh_id with
  | Some dbs ->
    List.iter
      (fun db -> ignore (Mlds.System.build_pending_indexes t.sys ~db))
      dbs
  | None ->
    List.iter
      (fun (db, _) -> ignore (Mlds.System.build_pending_indexes t.sys ~db))
      (Mlds.System.databases t.sys));
  (* the batch's durability point just passed: let the shipper publish
     the new synced WAL position to its sender threads *)
  notify_durable t

(* One shard's executor loop: drain its queue in batches ([batch =
   false] degrades [max] to 1, which makes [pop_batch] exactly [pop] and
   every batch a singleton — the serial executor of old), parking
   between batches whenever the global lane holds the epoch barrier. *)
let shard_loop t sh =
  let max = if t.cfg.batch then Stdlib.max 1 t.cfg.max_batch else 1 in
  let ticks =
    t.cfg.checkpoint_every_bytes > 0 || t.cfg.checkpoint_every_s > 0.
  in
  let rec loop () =
    park_if_quiesced t;
    match Bounded_queue.pop_batch sh.sh_queue ~max with
    | [] -> retire_shard t  (* closed and drained: shutdown *)
    | jobs ->
      note_depth t;
      execute_batch t sh jobs;
      note_depth t;
      (* nudge the global lane to re-check the checkpoint triggers: the
         WAL may just have crossed the byte threshold *)
      if ticks then Bounded_queue.push_control t.gqueue G_tick;
      loop ()
  in
  loop ()

(* --- the global lane -------------------------------------------------------- *)

(* One bounded slice of checkpoint work, rendered on the read pool when
   one exists (the checkpoint-offload path: shard executors and even the
   global lane's own job intake never pay for snapshot serialization),
   inline otherwise. The slice mutates only the capture's own buffer,
   and the await gives the happens-before edge back to the lane. *)
let checkpoint_slice_off t st =
  let max_records = Stdlib.max 1 t.cfg.checkpoint_slice_records in
  let slice () = Mlds.Persist.checkpoint_slice st.ck ~max_records in
  match t.read_pool with
  | Some pool when Mbds.Pool.size pool > 1 ->
    t.ckpt_rr <- t.ckpt_rr + 1;
    Mbds.Pool.run_on pool t.ckpt_rr slice
  | _ -> slice ()

(* Advance the in-flight checkpoint; capture drained ⇒ finish (snapshot
   rename + WAL truncate) under the barrier, so no shard is mid-fsync on
   the WAL being truncated. *)
let checkpoint_step t =
  match t.ckpt with
  | None -> ()
  | Some st ->
    (match checkpoint_slice_off t st with
    | `More _ -> ()
    | `Ready -> with_quiesced t (fun () -> finish_checkpoint t st))

let run_gjob t = function
  | G_tick -> ()
  | G_task f -> ( try f () with _ -> ())
  | G_request (conn, ({ Wire.msg = Wire.Stats | Wire.Tail _; _ } as frame), _)
    ->
    answer_control t conn frame
  | G_request (conn, ({ Wire.msg = Wire.Checkpoint; _ } as frame), _) ->
    if Atomic.get t.read_only then begin
      (* a standby's WAL belongs to the replication stream; truncating it
         out from under the receiver would corrupt the standby's notion
         of its own position *)
      let msg =
        Wire.Err (Wire.Read_only, "standby: checkpointing is the primary's job")
      in
      record_event t frame ~session:frame.Wire.session_id ~language:"-"
        ~latency_s:0. ~msg ~batch:(Atomic.get t.batch_seq);
      reply conn frame msg
    end
    else (
      (* a \checkpoint joins the in-flight checkpoint (if any) or starts
         one; either way its reply waits for checkpoint_finish *)
      match t.ckpt with
      | Some st -> st.ck_waiters <- (conn, frame) :: st.ck_waiters
      | None -> start_checkpoint t ~waiter:(Some (conn, frame)))
  | G_request (conn, frame, _) ->
    (* defensive: readers only route control opcodes here *)
    reply conn frame (Wire.Err (Wire.Bad_request, "not a control opcode"))

(* Process one intake of global jobs. Ticks are free (a trigger check);
   everything else is an escalation: quiesce the shards once, run every
   escalated job at the resulting global serial point (inside a WAL
   group bracket spanning all databases — injected closures append, and
   their fsyncs are covered exactly like a shard batch's), then resume.
   Checkpoint capture joins the same barrier when a trigger fired. *)
let handle_gjobs t gjobs =
  let serial =
    List.filter (function G_tick -> false | _ -> true) gjobs
  in
  let start = checkpoint_due t in
  match serial, start with
  | [], false -> ()
  | _ ->
    (match serial with
    | [] -> ()
    | l -> Obs.Metrics.incr ~by:(List.length l) c_escalations);
    with_quiesced t (fun () ->
        Mlds.System.wal_group_begin t.sys;
        List.iter (run_gjob t) serial;
        (if start then
           match t.ckpt with
           | None -> start_checkpoint t ~waiter:None
           | Some _ -> ());
        (match Mlds.System.wal_group_end t.sys with
        | Ok () -> ()
        | Error _ -> ());
        notify_durable t)

(* The global lane's loop: block on the lane queue when idle; while a
   checkpoint is in flight switch to non-blocking intake and advance the
   checkpoint one slice per round — slices can never starve escalated
   jobs and escalated jobs can never stall the checkpoint. A closed,
   drained queue with a checkpoint still in flight keeps slicing until
   the checkpoint lands, then exits. *)
let global_loop t =
  let rec loop () =
    match t.ckpt with
    | Some _ ->
      (match Bounded_queue.try_pop_batch t.gqueue ~max:16 with
      | [] ->
        checkpoint_step t;
        loop ()
      | gjobs ->
        handle_gjobs t gjobs;
        checkpoint_step t;
        loop ())
    | None ->
      (match Bounded_queue.pop_batch t.gqueue ~max:16 with
      | [] -> ()  (* closed and drained: shutdown *)
      | gjobs ->
        handle_gjobs t gjobs;
        loop ())
  in
  loop ()

(* --- per-connection readers ---------------------------------------------- *)

let reader_loop t conn =
  let disconnect () =
    (* broadcast: each shard closes its own sessions of this connection;
       during shutdown the control lanes are closed and this is a no-op
       ([shutdown] itself closes every session and connection) *)
    Array.iter
      (fun sh -> Bounded_queue.push_control sh.sh_queue (J_disconnect conn))
      t.shards
  in
  let rec loop () =
    match Wire.read_frame conn.fd with
    | exception _ -> disconnect ()
    | Ok None | Error _ -> disconnect ()
    | Ok (Some payload) ->
      (match Wire.decode_request payload with
      | Error msg ->
        (* answer on request id 0 — the caller cannot be identified *)
        send conn
          {
            Wire.version = Wire.protocol_version;
            request_id = 0;
            session_id = 0;
            msg = Wire.Err (Wire.Bad_request, msg);
          };
        loop ()
      | Ok frame ->
        let arrival = Obs.Clock.now_s () in
        (match frame.Wire.msg with
        | Wire.Ping ->
          reply conn frame Wire.Pong;
          loop ()
        | Wire.Bye ->
          reply conn frame Wire.Goodbye;
          disconnect ()
        | Wire.Tail _ ->
          if Atomic.get t.draining then begin
            reply conn frame
              (Wire.Err (Wire.Shutting_down, "server is shutting down"));
            loop ()
          end
          else begin
            (* Tail touches only the lock-free ring, so this connection's
               own reader thread can render it — no executor shard ever
               sees the (potentially large) event drain, and polling
               costs the batch pipelines nothing at all *)
            answer_control t conn frame;
            loop ()
          end
        | Wire.Promote ->
          (* answered on this reader thread: promotion blocks on the
             global lane draining its injected applies, so it must NOT
             run on the lane itself — only this client waits *)
          let msg =
            if Atomic.get t.draining then
              Wire.Err (Wire.Shutting_down, "server is shutting down")
            else
              match t.promote_hook with
              | None ->
                Wire.Err (Wire.Bad_request, "not a standby: nothing to promote")
              | Some promote ->
                (match promote () with
                | Ok summary -> Wire.Output summary
                | Error why ->
                  Wire.Err (Wire.Exec_error, "promote failed: " ^ why))
          in
          record_event t frame ~session:frame.Wire.session_id ~language:"-"
            ~latency_s:(Obs.Clock.since arrival) ~msg ~batch:0;
          reply conn frame msg;
          loop ()
        | Wire.Repl_hello { gen; pos; boot } ->
          (match t.repl_hello with
          | Some attach when not (Atomic.get t.draining) ->
            (* the connection leaves the request/response protocol: drop
               it from the table (shutdown must not close a descriptor
               the shipper owns) and exit this reader thread *)
            Mutex.lock t.conns_mx;
            Hashtbl.remove t.conns conn.c_id;
            Mutex.unlock t.conns_mx;
            attach conn.fd ~peer:conn.peer ~gen ~pos ~boot
          | Some _ | None ->
            reply conn frame
              (Wire.Err
                 (Wire.Bad_request, "replication not enabled on this server"));
            loop ())
        | Wire.Stats | Wire.Checkpoint ->
          if Atomic.get t.draining then begin
            reply conn frame
              (Wire.Err (Wire.Shutting_down, "server is shutting down"));
            loop ()
          end
          else begin
            (* Stats reads every shard's session table and Checkpoint
               drives the lane-owned checkpoint state machine, so both
               escalate to the global lane's (unbounded) queue: the lane
               quiesces the shards and answers ahead of queued user
               requests, a polling dashboard never competes for
               request-lane slots, and neither can be turned away by
               admission control *)
            Bounded_queue.push_control t.gqueue
              (G_request (conn, frame, arrival));
            loop ()
          end
        | _ ->
          if Atomic.get t.draining then begin
            reply conn frame
              (Wire.Err (Wire.Shutting_down, "server is shutting down"));
            loop ()
          end
          else begin
            let sh = t.shards.(shard_for_frame t frame) in
            if
              (* fair admission: each connection gets its own lane in its
                 shard's queue, drained round-robin, so one greedy
                 pipeline can neither starve a polite client nor fill the
                 whole queue *)
              Bounded_queue.try_push sh.sh_queue ~key:conn.c_id
                (J_request (conn, frame, arrival))
            then begin
              note_depth t;
              loop ()
            end
            else begin
              (* admission control: typed rejection, never a stalled
                 socket. The latency is the (tiny but honest) decode-to
                 -reject time — never a p50-polluting hard zero. *)
              Obs.Metrics.incr c_rejected;
              note_depth t;
              record_event t frame ~session:frame.Wire.session_id ~language:"-"
                ~latency_s:(Obs.Clock.since arrival) ~msg:Wire.Overloaded
                ~batch:0;
              reply conn frame Wire.Overloaded;
              loop ()
            end
          end))
  in
  loop ()

(* --- accept / reaper ----------------------------------------------------- *)

let accept_loop t =
  let rec loop () =
    match Unix.accept t.listener with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop ()
    | exception _ -> ()  (* listener closed: shutdown *)
    | fd, addr ->
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with _ -> ());
      (* A client that stops reading must not wedge an executor shard:
         bound every response write so a full send buffer turns into a
         failed write (the connection is marked dead) instead of
         head-of-line blocking for all sessions. *)
      (if t.cfg.send_timeout_s > 0. then
         try Unix.setsockopt_float fd Unix.SO_SNDTIMEO t.cfg.send_timeout_s
         with _ -> ());
      let peer =
        match addr with
        | Unix.ADDR_INET (host, port) ->
          Printf.sprintf "%s:%d" (Unix.string_of_inet_addr host) port
        | Unix.ADDR_UNIX path -> path
      in
      Mutex.lock t.conns_mx;
      let c_id = t.next_conn in
      t.next_conn <- c_id + 1;
      let conn = { c_id; fd; peer; write_mx = Mutex.create (); alive = true } in
      Hashtbl.replace t.conns c_id conn;
      Mutex.unlock t.conns_mx;
      ignore (Thread.create (fun () -> reader_loop t conn) ());
      loop ()
  in
  loop ()

let reaper_loop t =
  let rec loop elapsed =
    if not (Atomic.get t.reaper_stop) then begin
      Thread.delay 0.05;
      let elapsed = elapsed +. 0.05 in
      if elapsed >= t.cfg.reap_every_s then begin
        Array.iter
          (fun sh -> Bounded_queue.push_control sh.sh_queue J_reap)
          t.shards;
        (* heartbeat for the time-based checkpoint trigger: with no
           traffic there are no batch-end nudges, so the reaper keeps the
           lane's trigger check alive *)
        Bounded_queue.push_control t.gqueue G_tick;
        loop 0.
      end
      else loop elapsed
    end
  in
  loop 0.

(* --- lifecycle ----------------------------------------------------------- *)

let create ?(config = default_config) ?(on_drain = fun () -> ()) sys =
  match Net.resolve config.host with
  | Error msg -> Error (Printf.sprintf "bad bind address %S: %s" config.host msg)
  | Ok addr ->
    let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    (try
       Unix.setsockopt listener Unix.SO_REUSEADDR true;
       Unix.bind listener (Unix.ADDR_INET (addr, config.port));
       Unix.listen listener 64;
       let bound_port =
         match Unix.getsockname listener with
         | Unix.ADDR_INET (_, port) -> port
         | Unix.ADDR_UNIX _ -> config.port
       in
       let read_pool =
         if config.batch && config.read_workers > 1 then
           Some (Mbds.Pool.create config.read_workers)
         else None
       in
       let async_reads =
         match read_pool with
         | Some pool -> Mbds.Pool.size pool > 1
         | None -> false
       in
       let nshards = Stdlib.max 1 (Stdlib.min 64 config.shards) in
       let routes = Hashtbl.create 64 in
       let routes_mx = Mutex.create () in
       let on_close (entry : Sessions.entry) =
         Mutex.lock routes_mx;
         Hashtbl.remove routes entry.Sessions.id;
         Mutex.unlock routes_mx
       in
       let shards =
         Array.init nshards (fun i ->
             {
               sh_id = i;
               sh_queue = Bounded_queue.create ~capacity:config.queue_capacity;
               sh_sessions = Sessions.create ~on_close sys;
               sh_g_depth =
                 Obs.Metrics.gauge
                   (Printf.sprintf "server.shard.%d.queue_depth" i);
               sh_h_batch =
                 Obs.Metrics.histogram
                   ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
                   (Printf.sprintf "server.shard.%d.batch_size" i);
               sh_batch = 0;
               lat_window = Array.make 256 0.;
               lat_count = 0;
               sh_thread = None;
             })
       in
       let t =
         {
           cfg = config;
           sys;
           shards;
           routes;
           routes_mx;
           db_shards = Hashtbl.create 8;
           db_mx = Mutex.create ();
           next_db_shard = 0;
           async_reads;
           read_pool;
           listener;
           bound_port;
           conns = Hashtbl.create 32;
           conns_mx = Mutex.create ();
           next_conn = 1;
           recorder =
             (if config.recorder_capacity > 0 then
                Some
                  (Obs.Recorder.create ~capacity:config.recorder_capacity
                     ~slow_capacity:(Stdlib.max 1 config.slow_log_capacity)
                     ~slow_threshold_s:config.slow_threshold_s ())
              else None);
           started_s = Obs.Clock.now_s ();
           batch_seq = Atomic.make 0;
           draining = Atomic.make false;
           stopped = Atomic.make false;
           reaper_stop = Atomic.make false;
           on_drain;
           accept_thread = None;
           global_thread = None;
           reaper_thread = None;
           shutdown_mx = Mutex.create ();
           gl_mx = Mutex.create ();
           gl_cond = Condition.create ();
           quiesce = Atomic.make false;
           parked = 0;
           retired = 0;
           durable_mx = Mutex.create ();
           gqueue = Bounded_queue.create ~capacity:64;
           ckpt = None;
           last_ckpt_s = Obs.Clock.now_s ();
           last_ckpt_mark = 0;
           ckpt_rr = 0;
           read_only = Atomic.make false;
           on_durable = None;
           truncate_fence = None;
           repl_hello = None;
           promote_hook = None;
         }
       in
       Array.iter
         (fun sh ->
           sh.sh_thread <- Some (Thread.create (fun () -> shard_loop t sh) ()))
         t.shards;
       t.global_thread <- Some (Thread.create (fun () -> global_loop t) ());
       t.accept_thread <- Some (Thread.create (fun () -> accept_loop t) ());
       t.reaper_thread <- Some (Thread.create (fun () -> reaper_loop t) ());
       Ok t
     with Unix.Unix_error (err, _, _) ->
       (try Unix.close listener with _ -> ());
       Error
         (Printf.sprintf "cannot listen on %s:%d: %s" config.host config.port
            (Unix.error_message err)))

let port t = t.bound_port

let system t = t.sys

let recorder t = t.recorder

let session_count t =
  Array.fold_left (fun a sh -> a + Sessions.active sh.sh_sessions) 0 t.shards

let shard_count t = Array.length t.shards

let running t = not (Atomic.get t.stopped)

let shutdown t =
  Mutex.lock t.shutdown_mx;
  if not (Atomic.get t.stopped) then begin
    Atomic.set t.draining true;
    (* 1. stop accepting *)
    (try Unix.shutdown t.listener Unix.SHUTDOWN_ALL with _ -> ());
    (try Unix.close t.listener with _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (* 2. drain the shards: no new work enters; each finishes what is
       queued and retires (a retired shard satisfies any in-flight
       quiesce, so the global lane can never deadlock here) *)
    Array.iter (fun sh -> Bounded_queue.close sh.sh_queue) t.shards;
    Array.iter
      (fun sh ->
        match sh.sh_thread with Some th -> Thread.join th | None -> ())
      t.shards;
    (* 3. drain the global lane: remaining escalations run against the
       fully retired (trivially quiesced) shards; an in-flight online
       checkpoint is sliced to completion first *)
    Bounded_queue.close t.gqueue;
    (match t.global_thread with Some th -> Thread.join th | None -> ());
    (* every executor is gone; the read pool is idle *)
    (match t.read_pool with Some pool -> Mbds.Pool.shutdown pool | None -> ());
    (* 4. the session tables are safe to touch: close every session,
       aborting transactions left open *)
    Array.iter (fun sh -> Sessions.close_all sh.sh_sessions) t.shards;
    (* 5. persistence hook (the binary checkpoints attached WALs here) *)
    t.on_drain ();
    (* 6. tear down the sockets; readers error out and exit *)
    Atomic.set t.reaper_stop true;
    (match t.reaper_thread with Some th -> Thread.join th | None -> ());
    let conns =
      Mutex.lock t.conns_mx;
      let cs = Hashtbl.fold (fun _ c acc -> c :: acc) t.conns [] in
      Hashtbl.reset t.conns;
      Mutex.unlock t.conns_mx;
      cs
    in
    List.iter kill_conn conns;
    Atomic.set t.stopped true
  end;
  Mutex.unlock t.shutdown_mx

(* --- the replication plane's API ------------------------------------------ *)

(* Run [f] on the global lane at the next global serial point — every
   shard quiesced, every WAL covered by the lane's group bracket. Never
   droppable by admission control, FIFO with other injected tasks, wakes
   a blocked lane. *)
let inject t f = Bounded_queue.push_control t.gqueue (G_task f)

let set_read_only t b = Atomic.set t.read_only b

let read_only t = Atomic.get t.read_only

let set_durability_hook t f = t.on_durable <- f

let set_truncate_fence t f = t.truncate_fence <- f

let set_repl_hello t f = t.repl_hello <- f

let set_promote_hook t f = t.promote_hook <- f
