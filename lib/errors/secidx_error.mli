(** Typed failure modes shared by every layer of the stack.

    The integrity contract of this repo (PR 3) is that an index never
    returns a silently wrong answer: a decode of damaged bits either
    produces the right result, is detected and repaired, or raises one
    of these exceptions.

    - [Corrupt] — on-device bits failed a structural check: a framing
      checksum mismatch, a decode budget exceeded (a run or codeword
      that cannot encode a value fitting the 62-bit word bound), or a
      directory entry pointing outside its extent.
    - [Stale_decoder] — a buffered decoder outlived a
      device mutation; its snapshot of the backing store may be
      detached from reality, so reading through it is refused.
    - [IO_error] — a transient device fault: the access may succeed if
      retried (see [Iosim.Device.with_retries]).
    - [Crashed] — a simulated process kill fired mid-write (see
      [Iosim.Fault.arm_crash], PR 8).  Unlike [IO_error] it must never
      be retried: the writer is dead, and the only way forward is
      recovery from durable state ([Wal.Recovery]). *)

exception Corrupt of string
exception Stale_decoder of string
exception IO_error of string
exception Crashed of string

(** [corrupt fmt ...] raises {!Corrupt} with a formatted message. *)
val corrupt : ('a, unit, string, 'b) format4 -> 'a

(** [crashed fmt ...] raises {!Crashed} with a formatted message. *)
val crashed : ('a, unit, string, 'b) format4 -> 'a
