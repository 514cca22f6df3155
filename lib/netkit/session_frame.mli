(** Length-prefixed message framing for the client session protocol:
    each {!Wire.Client} request or response travels as a 32-bit
    big-endian length followed by the encoded body. Shared by the
    session service ({!Session}, non-blocking {!stream}s on its event
    loop) and the client library ({!Session_client}, blocking
    {!send}/{!recv}) so both agree on the byte stream, and so the frame
    cap is checked in one place. *)

exception Closed
(** The peer closed the connection (EOF mid-frame or before one). *)

val max_frame : int
(** Upper bound on one message body (1 MiB); a larger or negative
    announced length raises {!Wire.Malformed} — garbage, not a
    message. *)

val recv : Unix.file_descr -> string
(** Read one framed message body from a blocking socket. Raises
    {!Closed} on EOF, {!Wire.Malformed} on an absurd length,
    [Unix.Unix_error] on socket failure. *)

val send : Unix.file_descr -> string -> unit
(** Write one framed message to a blocking socket. Raises
    [Unix.Unix_error] on socket failure (including a send timeout if
    the socket has one set). *)

(** {1 Non-blocking streams} *)

type stream
(** One non-blocking connection: an incremental frame parser over its
    input and the output the kernel has not taken yet. *)

val stream : Unix.file_descr -> stream
(** Put [fd] in non-blocking mode and wrap it. *)

val input : stream -> (string -> unit) -> bool
(** One read of whatever the socket has, then [f] on each message body
    completed so far, in order — bytes may arrive one at a time or
    several messages in one read. [false] at EOF. Raises
    {!Wire.Malformed} as soon as a length prefix is out of range, and
    [Unix.Unix_error] on socket failure. *)

val output : stream -> string -> unit
(** Queue one framed message; {!flush} writes it. *)

val flush : stream -> int
(** Write as much queued output as the socket takes without blocking;
    returns the bytes still queued. Raises [Unix.Unix_error] on socket
    failure. *)
