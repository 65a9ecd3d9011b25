exception Crash of string

type entry =
  | Begin
  | Commit
  | Abort
  | Keyed_insert of Abdm.Store.dbkey * Abdm.Record.t
  | Replace of Abdm.Store.dbkey * Abdm.Record.t
  | Request of Abdl.Ast.request
  | Generation of int

type failure =
  | Crash_before_fsync
  | Crash_mid_frame
  | Short_write of int

type t = {
  wal_path : string;
  mutable fd : Unix.file_descr option;  (* None once closed or crashed *)
  mutable do_fsync : bool;
  mutable len : int;  (* bytes written to the OS *)
  mutable synced_len : int;  (* bytes known durable (last fsync) *)
  mutable appends : int;
  mutable fsyncs : int;  (* real fsync syscalls issued by this handle *)
  mutable grouping : bool;  (* inside begin_group..end_group *)
  mutable deferred_syncs : int;  (* sync requests absorbed by the group *)
  mutable failpoint : (int * failure) option;
  mutable generation : int;  (* bumped by every truncate; 0 for a virgin log *)
  mutable last_trunc : (int * int * int) option;
      (* (new_gen, keep_from, base): the most recent truncation's
         coordinate map — old-log offset [keep_from] became offset [base]
         in generation [new_gen]. The replication shipper uses it to
         remap a standby's position across a checkpoint truncation. *)
  mutable trunc_crash : bool;  (* one-shot: die between .swap build and rename *)
  group_buf : Bytes.t;  (* frames not yet written: bytes [0, buffered) *)
  mutable buffered : int;
  payload : Buffer.t;  (* scratch: the entry being encoded *)
}

(* observability: shared instruments in the process-wide registry *)
let h_append = Obs.Metrics.histogram "wal.append_s"

let h_fsync = Obs.Metrics.histogram "wal.fsync_s"

let h_group = Obs.Metrics.histogram ~buckets:[| 1.; 2.; 4.; 8.; 16.; 32.; 64. |]
    "wal.group_commit_size"

let c_recovered = Obs.Metrics.counter "wal.recovered_frames"

let c_torn = Obs.Metrics.counter "wal.torn_tail"

let c_trim_failed = Obs.Metrics.counter "wal.trim_failed"

let c_stale_swap = Obs.Metrics.counter "wal.stale_swap_removed"

let c_close_failed = Obs.Metrics.counter "wal.close_failed"

(* current log length in bytes — the checkpoint trigger's signal. One
   process-wide gauge: with several logs attached it tracks the one that
   wrote last, which is the single-database server's common case. *)
let g_bytes = Obs.Metrics.gauge "wal.bytes"

(* --- CRC-32 (IEEE, the zlib polynomial) --------------------------------- *)

(* Slicing-by-4: four 256-entry tables in one array. Slice 0
   ([crc_table.(n)]) is the classic byte table; slice k
   ([crc_table.(256 * k + n)]) carries a byte's contribution k bytes
   further, so the main loop folds a whole 4-byte word per step. *)
let crc_table =
  let t = Array.make 1024 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
    done;
    t.(n) <- !c
  done;
  for n = 256 to 1023 do
    let prev = t.(n - 256) in
    t.(n) <- (prev lsr 8) lxor t.(prev land 0xFF)
  done;
  t

(* The caller guarantees [off, off + len) lies inside [b]; every table
   index is below 1024 because [c] and [x] stay within 32 bits. *)
let crc_update_bytes crc b off len =
  let tab = crc_table in
  let byte i = Char.code (Bytes.unsafe_get b i) in
  let c = ref (crc lxor 0xFFFFFFFF) in
  let i = ref off in
  let stop = off + len in
  while !i + 4 <= stop do
    let p = !i in
    let x =
      !c
      lxor (byte p lor (byte (p + 1) lsl 8) lor (byte (p + 2) lsl 16)
           lor (byte (p + 3) lsl 24))
    in
    c :=
      Array.unsafe_get tab (768 + (x land 0xFF))
      lxor Array.unsafe_get tab (512 + ((x lsr 8) land 0xFF))
      lxor Array.unsafe_get tab (256 + ((x lsr 16) land 0xFF))
      lxor Array.unsafe_get tab (x lsr 24);
    i := p + 4
  done;
  while !i < stop do
    c := Array.unsafe_get tab ((!c lxor byte !i) land 0xFF) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

let crc32_update crc s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Wal.crc32_update";
  crc_update_bytes crc (Bytes.unsafe_of_string s) off len

let crc32 s = crc_update_bytes 0 (Bytes.unsafe_of_string s) 0 (String.length s)

(* --- entry encoding ------------------------------------------------------ *)

let add_entry buf entry =
  let keyed tag key record =
    Buffer.add_string buf tag;
    Buffer.add_string buf (string_of_int key);
    Buffer.add_char buf ' ';
    Abdl.Ast.add_insert buf record
  in
  match entry with
  | Begin -> Buffer.add_string buf "BEGIN"
  | Commit -> Buffer.add_string buf "COMMIT"
  | Abort -> Buffer.add_string buf "ABORT"
  | Keyed_insert (key, record) -> keyed "KEYED " key record
  | Replace (key, record) -> keyed "REPLACE " key record
  | Request request -> Buffer.add_string buf (Abdl.Ast.to_string request)
  | Generation g ->
    Buffer.add_string buf "GENERATION ";
    Buffer.add_string buf (string_of_int g)

let encode_entry entry =
  let buf = Buffer.create 128 in
  add_entry buf entry;
  Buffer.contents buf

let decode_keyed payload ~tag ~make =
  (* "<tag> <key> INSERT (...)" *)
  let plen = String.length payload and tlen = String.length tag + 1 in
  match String.index_from_opt payload tlen ' ' with
  | None -> Error (Printf.sprintf "truncated %s entry" tag)
  | Some sp ->
    match int_of_string_opt (String.sub payload tlen (sp - tlen)) with
    | None -> Error (Printf.sprintf "bad key in %s entry" tag)
    | Some key ->
      let rest = String.sub payload (sp + 1) (plen - sp - 1) in
      match Abdl.Parser.request rest with
      | Abdl.Ast.Insert record -> Ok (make key record)
      | _ -> Error (Printf.sprintf "%s entry does not carry an INSERT" tag)
      | exception Abdl.Parser.Parse_error msg ->
        Error (Printf.sprintf "bad record in %s entry: %s" tag msg)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal prefix (String.sub s 0 (String.length prefix))

let decode_entry payload =
  match payload with
  | "BEGIN" -> Ok Begin
  | "COMMIT" -> Ok Commit
  | "ABORT" -> Ok Abort
  | _ when starts_with "KEYED " payload ->
    decode_keyed payload ~tag:"KEYED" ~make:(fun k r -> Keyed_insert (k, r))
  | _ when starts_with "REPLACE " payload ->
    decode_keyed payload ~tag:"REPLACE" ~make:(fun k r -> Replace (k, r))
  | _ when starts_with "GENERATION " payload ->
    (match int_of_string_opt (String.sub payload 11 (String.length payload - 11)) with
    | Some g -> Ok (Generation g)
    | None -> Error "bad GENERATION entry")
  | _ ->
    match Abdl.Parser.request payload with
    | request -> Ok (Request request)
    | exception Abdl.Parser.Parse_error msg ->
      Error (Printf.sprintf "bad WAL entry: %s" msg)

(* --- frames -------------------------------------------------------------- *)

(* Lays the frame of an encoded [payload] at [dst.[off]]: one copy of the
   payload, then one CRC pass over the copy. *)
let put_frame dst off payload =
  let n = Buffer.length payload in
  Bytes.set_int32_be dst off (Int32.of_int n);
  Buffer.blit payload 0 dst (off + 8) n;
  Bytes.set_int32_be dst (off + 4)
    (Int32.of_int (crc_update_bytes 0 dst (off + 8) n))

let frame_of_payload payload =
  let b = Bytes.create (8 + Buffer.length payload) in
  put_frame b 0 payload;
  b

(* One frame's on-disk bytes: generation markers, and the synthetic ABORT
   a standby appends for a transaction the dead primary never finished. *)
let encode_frame entry =
  let payload = Buffer.create 128 in
  add_entry payload entry;
  frame_of_payload payload

(* Frames appended inside a commit group collect in one fixed, reused
   buffer of this size and reach the OS in one write. A frame that does
   not fit is written on its own, so the buffer never grows. 4 KiB already
   cuts a 100-row ingest request (~30 KB of frames) from 100 writes to 8.
   A 64 KiB buffer bought no measurable throughput over it on the ingest
   benchmark, yet its allocation alone raised the server's peak RSS by
   about 0.85 MiB. *)
let group_buffer_bytes = 4 * 1024

let max_frame_payload = 1 lsl 24 (* 16 MiB: anything larger is corruption *)

(* --- the writing handle -------------------------------------------------- *)

(* The generation an existing log belongs to: the marker frame every
   truncate writes first. A log that starts with anything else (including
   a pre-generation log, or an empty file) is generation 0. *)
let read_generation path =
  if not (Sys.file_exists path) then 0
  else begin
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let header = Bytes.create 8 in
        match really_input ic header 0 8 with
        | exception End_of_file -> 0
        | () ->
          let plen = Int32.to_int (Bytes.get_int32_be header 0) in
          let crc = Int32.to_int (Bytes.get_int32_be header 4) land 0xFFFFFFFF in
          if plen < 1 || plen > max_frame_payload then 0
          else
            match really_input_string ic plen with
            | exception End_of_file -> 0
            | payload ->
              if crc32 payload <> crc then 0
              else
                match decode_entry payload with
                | Ok (Generation g) -> g
                | Ok _ | Error _ -> 0)
  end

let open_log ?(fsync = true) path =
  (* A crash between truncate_to's .swap build and its rename leaves the
     complete old log in place with an orphaned .swap beside it. The old
     log is the truth (the rename never happened), so the swap is dead
     weight — and worse: left alone it would sit there forever, and a
     later truncate_to would happily rename a stale snapshot of the log
     over a newer one if its own crash landed in the same window. *)
  let swap = path ^ ".swap" in
  if Sys.file_exists swap then begin
    (try Sys.remove swap with Sys_error _ -> ());
    Obs.Metrics.incr c_stale_swap
  end;
  let generation = read_generation path in
  let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT ] 0o644 in
  let len = Unix.lseek fd 0 Unix.SEEK_END in
  Obs.Metrics.set_gauge g_bytes (float_of_int len);
  {
    wal_path = path;
    fd = Some fd;
    do_fsync = fsync;
    len;
    synced_len = len;
    appends = 0;
    fsyncs = 0;
    grouping = false;
    deferred_syncs = 0;
    failpoint = None;
    generation;
    last_trunc = None;
    trunc_crash = false;
    group_buf = Bytes.create group_buffer_bytes;
    buffered = 0;
    payload = Buffer.create 256;
  }

let path t = t.wal_path

let appended t = t.appends

let generation t = t.generation

(* Byte length of the log right now, frames still in the group buffer
   included: the position a snapshot taken at this instant covers.
   Frames at offsets below it are pre-snapshot. *)
let position t = t.len

(* Bytes known durable — the replication shipper streams up to here and
   no further, so a standby never holds frames the primary could lose. *)
let synced_position t = t.synced_len

let last_truncation t = t.last_trunc

let set_fsync t b = t.do_fsync <- b

let fsync_enabled t = t.do_fsync

let live t =
  match t.fd with
  | Some fd -> fd
  | None -> raise (Crash (Printf.sprintf "WAL %s: handle is dead" t.wal_path))

let write_all fd bytes off len =
  let written = ref off in
  while !written < off + len do
    written := !written + Unix.write fd bytes !written (off + len - !written)
  done

(* the simulated machine dies: the handle is unusable from here on, and
   frames still in the group buffer die with it *)
let die t msg =
  (match t.fd with
  | Some fd -> (try Unix.close fd with Unix.Unix_error _ -> ())
  | None -> ());
  t.fd <- None;
  t.buffered <- 0;
  raise (Crash msg)

(* A failed write may leave part of the bytes on disk; a frame written
   after them would sit beyond a hole that recovery stops at. So the
   handle dies instead, and the caller withholds every ack it covers. *)
let write_or_die t fd bytes off len =
  try write_all fd bytes off len
  with Unix.Unix_error (e, _, _) ->
    die t ("WAL write failed: " ^ Unix.error_message e)

let flush t =
  if t.buffered > 0 then begin
    let n = t.buffered in
    t.buffered <- 0;
    write_or_die t (live t) t.group_buf 0 n
  end

let append t entry =
  let fd = live t in
  t.appends <- t.appends + 1;
  let t0 = Obs.Clock.now_s () in
  let payload = t.payload in
  Buffer.clear payload;
  add_entry payload entry;
  let flen = 8 + Buffer.length payload in
  match t.failpoint with
  | Some (k, failure) when t.appends >= k ->
    t.failpoint <- None;
    (* the buffered frames reach the OS first: the file then holds
       exactly what an unbuffered log holds at this crash *)
    flush t;
    let frame = frame_of_payload payload in
    begin
      match failure with
      | Crash_mid_frame ->
        (* half the frame reaches disk: a torn tail for recovery to stop at *)
        write_all fd frame 0 (flen / 2);
        die t "crash mid-frame"
      | Short_write n ->
        write_all fd frame 0 (min (max n 0) flen);
        die t "short write"
      | Crash_before_fsync ->
        (* the frame reached the OS but the machine dies before fsync:
           everything since the last sync never becomes durable. If the
           trim back to the durable prefix itself fails we must say so —
           the file then still holds never-synced bytes. *)
        write_all fd frame 0 flen;
        (try Unix.ftruncate fd t.synced_len
         with Unix.Unix_error _ -> Obs.Metrics.incr c_trim_failed);
        die t "crash before fsync"
    end
  | Some _ | None ->
    if flen > Bytes.length t.group_buf then begin
      (* too big to buffer: it follows the buffered frames on its own *)
      flush t;
      write_or_die t fd (frame_of_payload payload) 0 flen
    end
    else begin
      if t.buffered + flen > Bytes.length t.group_buf then flush t;
      put_frame t.group_buf t.buffered payload;
      t.buffered <- t.buffered + flen;
      (* outside a group every frame is written at once, as it always was *)
      if not t.grouping then flush t
    end;
    (* a huge entry must not pin a huge scratch buffer *)
    if Buffer.length payload > group_buffer_bytes then Buffer.reset payload;
    t.len <- t.len + flen;
    Obs.Metrics.set_gauge g_bytes (float_of_int t.len);
    Obs.Metrics.observe h_append (Obs.Clock.since t0)

(* The dirty check: an fsync with nothing appended since the last one is
   a wasted syscall (it shows up directly in wal.fsync_s), so it is
   skipped — durability is unchanged because there is nothing new to make
   durable. *)
let dirty t = t.len > t.synced_len

(* The write of still-buffered frames is timed with the fsync it
   precedes: both are the cost of making the group durable. *)
let fsync_now t =
  let fd = live t in
  let t0 = Obs.Clock.now_s () in
  flush t;
  if t.do_fsync && dirty t then begin
    Unix.fsync fd;
    t.fsyncs <- t.fsyncs + 1;
    t.synced_len <- t.len;
    Obs.Metrics.observe h_fsync (Obs.Clock.since t0)
  end

let sync t =
  ignore (live t);
  if t.grouping then begin
    (* group commit: remember that a commit point passed; the covering
       fsync happens once, at end_group, and acks are withheld until then *)
    if t.do_fsync && dirty t then t.deferred_syncs <- t.deferred_syncs + 1
  end
  else fsync_now t

let fsyncs t = t.fsyncs

let begin_group t =
  ignore (live t);
  t.grouping <- true

let in_group t = t.grouping

let end_group t =
  if t.grouping then begin
    t.grouping <- false;
    let covered = t.deferred_syncs in
    t.deferred_syncs <- 0;
    if covered > 0 then begin
      fsync_now t;
      Obs.Metrics.observe h_group (float_of_int covered)
    end
    else flush t
  end

let truncate t =
  let fd = live t in
  flush t;
  let old_len = t.len in
  Unix.ftruncate fd 0;
  ignore (Unix.lseek fd 0 Unix.SEEK_SET);
  (* start the next generation: the marker lets replay tell this log
     apart from the one a snapshot was stamped against *)
  t.generation <- t.generation + 1;
  let marker = encode_frame (Generation t.generation) in
  write_all fd marker 0 (Bytes.length marker);
  t.last_trunc <- Some (t.generation, old_len, Bytes.length marker);
  t.len <- Bytes.length marker;
  t.synced_len <- t.len;
  t.deferred_syncs <- 0;
  t.fsyncs <- t.fsyncs + 1;
  Unix.fsync fd;
  Obs.Metrics.set_gauge g_bytes (float_of_int t.len)

(* Truncate to a checkpoint position while keeping the tail — the frames
   appended after the snapshot was captured. The replacement log (a
   next-generation marker, then the tail bytes) is built beside the old
   one, fsynced, and renamed over the log path. A crash at any point
   leaves either the complete old log (the stamped snapshot skips its
   first [keep_from] bytes on replay) or the complete new one (whose
   fresh generation defeats the stamp, so every surviving frame
   replays). *)
let truncate_to t ~keep_from =
  if t.grouping then invalid_arg "Wal.truncate_to: inside a commit group";
  let fd = live t in
  flush t;
  if keep_from >= t.len then truncate t
  else begin
    let tail_len = t.len - keep_from in
    let tail = Bytes.create tail_len in
    let rfd = Unix.openfile t.wal_path [ Unix.O_RDONLY ] 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close rfd with Unix.Unix_error _ -> ())
      (fun () ->
        ignore (Unix.lseek rfd keep_from Unix.SEEK_SET);
        let got = ref 0 in
        while !got < tail_len do
          let n = Unix.read rfd tail !got (tail_len - !got) in
          if n = 0 then raise (Crash "WAL tail vanished during truncate");
          got := !got + n
        done);
    let gen = t.generation + 1 in
    let marker = encode_frame (Generation gen) in
    let tmp = t.wal_path ^ ".swap" in
    let tfd =
      Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    (try
       write_all tfd marker 0 (Bytes.length marker);
       write_all tfd tail 0 tail_len;
       Unix.fsync tfd;
       Unix.close tfd
     with e ->
       (try Unix.close tfd with Unix.Unix_error _ -> ());
       raise e);
    if t.trunc_crash then begin
      (* the swap is complete on disk but the rename never happens: the
         old log stays the truth and the orphaned .swap must be cleaned
         up by the next open_log (the stale-swap regression test) *)
      t.trunc_crash <- false;
      die t "crash between .swap build and rename"
    end;
    Unix.rename tmp t.wal_path;
    (try Unix.close fd with Unix.Unix_error _ -> ());
    let nfd = Unix.openfile t.wal_path [ Unix.O_WRONLY ] 0o644 in
    let len = Unix.lseek nfd 0 Unix.SEEK_END in
    t.fd <- Some nfd;
    t.last_trunc <- Some (gen, keep_from, Bytes.length marker);
    t.generation <- gen;
    t.len <- len;
    t.synced_len <- len;
    t.deferred_syncs <- 0;
    t.fsyncs <- t.fsyncs + 1;
    Obs.Metrics.set_gauge g_bytes (float_of_int len)
  end

(* Nobody is left to raise to at close, but a failure here can mean
   frames never reached the disk: it is counted, never dropped. *)
let close t =
  match t.fd with
  | None -> ()
  | Some fd ->
    let failed =
      match
        flush t;
        Unix.fsync fd
      with
      | () -> false
      | exception (Unix.Unix_error _ | Crash _) -> true
    in
    let failed =
      match t.fd with
      | None -> failed  (* the failed flush already closed it *)
      | Some fd ->
        t.fd <- None;
        (match Unix.close fd with
        | () -> failed
        | exception Unix.Unix_error _ -> true)
    in
    if failed then Obs.Metrics.incr c_close_failed

let arm_failpoint t ~after_appends failure =
  t.failpoint <- Some (t.appends + after_appends, failure)

let inject_truncate_crash t = t.trunc_crash <- true

(* --- tailing (the replication shipper's read side) ----------------------- *)

(* [read_range path ~pos ~len] reads exactly [len] bytes at offset [pos]
   by path (a fresh descriptor, so it never disturbs the writing handle).
   None when the file is missing or shorter than [pos + len] — the caller
   raced a truncation rename and must re-resolve its position. *)
let read_range path ~pos ~len =
  match Unix.openfile path [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> None
  | rfd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close rfd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.lseek rfd pos Unix.SEEK_SET with
        | exception Unix.Unix_error _ -> None
        | _ ->
          let buf = Bytes.create len in
          let got = ref 0 in
          let short = ref false in
          while (not !short) && !got < len do
            match Unix.read rfd buf !got (len - !got) with
            | 0 -> short := true
            | n -> got := !got + n
            | exception Unix.Unix_error _ -> short := true
          done;
          if !short then None else Some (Bytes.unsafe_to_string buf))

(* [decode_frames data] walks [data] as a sequence of complete frames and
   decodes every payload. None unless the bytes are exactly a whole
   number of valid frames — the shipper's alignment check: a chunk read
   that raced a truncation rename lands at a foreign offset and fails
   the walk (or the CRC) with overwhelming probability. *)
let decode_frames data =
  let total = String.length data in
  let rec loop off acc =
    if off = total then Some (List.rev acc)
    else if total - off < 8 then None
    else begin
      let plen = Int32.to_int (String.get_int32_be data off) in
      let crc = Int32.to_int (String.get_int32_be data (off + 4)) land 0xFFFFFFFF in
      if plen < 1 || plen > max_frame_payload || total - off - 8 < plen then None
      else
        let payload = String.sub data (off + 8) plen in
        if crc32 payload <> crc then None
        else
          match decode_entry payload with
          | Error _ -> None
          | Ok entry -> loop (off + 8 + plen) (entry :: acc)
    end
  in
  loop 0 []

(* --- recovery ------------------------------------------------------------ *)

type recovery = {
  entries : entry list;
  frames : int;
  torn : bool;
  valid_bytes : int;
  gen : int;
  skipped : int;
  trimmed : bool;
  trim_failed : bool;
}

let recover ?(trim = false) ?skip path =
  if not (Sys.file_exists path) then
    { entries = []; frames = 0; torn = false; valid_bytes = 0; gen = 0;
      skipped = 0; trimmed = false; trim_failed = false }
  else begin
    let ic = open_in_bin path in
    let result =
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let total = in_channel_length ic in
          let header = Bytes.create 8 in
          let entries = ref [] in
          let frames = ref 0 in
          let valid = ref 0 in
          let torn = ref false in
          let gen = ref 0 in
          let skipped = ref 0 in
          (* Generation markers are log metadata, not workload: they are
             never returned as entries. A data frame is stale — skipped —
             when a [skip] stamp from a snapshot matches this log's
             generation and the frame ends within the stamped prefix. *)
          let keep entry ~frame_end =
            match entry with
            | Generation g -> gen := g
            | _ ->
              let stale =
                match skip with
                | Some (sgen, spos) -> !gen = sgen && frame_end <= spos
                | None -> false
              in
              if stale then incr skipped
              else begin
                entries := entry :: !entries;
                incr frames
              end
          in
          let rec loop () =
            if !valid < total then begin
              match really_input ic header 0 8 with
              | exception End_of_file -> torn := true
              | () ->
                let plen = Int32.to_int (Bytes.get_int32_be header 0) in
                let crc = Int32.to_int (Bytes.get_int32_be header 4) land 0xFFFFFFFF in
                if plen < 1 || plen > max_frame_payload then torn := true
                else begin
                  match really_input_string ic plen with
                  | exception End_of_file -> torn := true
                  | payload ->
                    if crc32 payload <> crc then torn := true
                    else
                      match decode_entry payload with
                      | Error _ -> torn := true
                      | Ok entry ->
                        valid := !valid + 8 + plen;
                        keep entry ~frame_end:!valid;
                        loop ()
                end
            end
          in
          loop ();
          Obs.Metrics.incr ~by:!frames c_recovered;
          if !torn then Obs.Metrics.incr c_torn;
          {
            entries = List.rev !entries;
            frames = !frames;
            torn = !torn;
            valid_bytes = !valid;
            gen = !gen;
            skipped = !skipped;
            trimmed = false;
            trim_failed = false;
          })
    in
    (* A torn tail means bytes past [valid_bytes] are garbage. Appending
       after them would leave frames recovery can never reach, so the
       caller may ask us to cut the file back to its valid prefix — and
       if the cut fails we must say so rather than pretend. *)
    if result.torn && trim then begin
      match Unix.truncate path result.valid_bytes with
      | () -> { result with trimmed = true }
      | exception Unix.Unix_error _ ->
        Obs.Metrics.incr c_trim_failed;
        { result with trim_failed = true }
    end
    else result
  end
