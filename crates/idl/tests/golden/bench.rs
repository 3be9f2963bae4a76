// Generated by idlc (spring-idl). Do not edit.


pub mod flatbench {

    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    pub enum Mode {
        Idle,
        Active,
        Draining,
    }

    impl Mode {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.put_u32(match self {
                Mode::Idle => 0,
                Mode::Active => 1,
                Mode::Draining => 2,
            });
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            Ok(match buf.get_u32()? {
                0 => Mode::Idle,
                1 => Mode::Active,
                2 => Mode::Draining,
                __tag => return Err(::subcontract::SpringError::Buf(::spring_buf::BufError::InvalidEnumTag(__tag))),
            })
        }

        /// Flat-frame check: a single in-range `u32` tag.
        pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            ::spring_buf::flat::check_len(__b, 4)?;
            ::spring_buf::flat::check_tag(__b, 0, 3)?;
            Ok(())
        }

        /// Decodes a tag already range-checked by `validate`.
        #[doc(hidden)]
        pub fn from_tag(__tag: u32) -> Self {
            match __tag {
                0 => Mode::Idle,
                1 => Mode::Active,
                2 => Mode::Draining,
                __t => unreachable!("enum tag {} after validate", __t),
            }
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct Stamp {
        pub secs: u64,
        pub nanos: u32,
    }

    impl Stamp {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
            buf.put_u64(self.secs);
            buf.put_u32(self.nanos);
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
                secs: buf.get_u64()?,
                nanos: buf.get_u32()?,
            })
        }

        /// Exact flat-frame size from an 8-aligned frame start.
        pub const fn footprint() -> usize {
            12
        }

        /// Bounds-and-tags check over one flat frame; views and
        /// accessors are infallible afterwards (validate-then-cast).
        pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            ::spring_buf::flat::check_len(__b, 12)?;
            Ok(())
        }
    }

    /// Zero-copy view over a validated `Stamp` flat frame.
    #[derive(Clone, Copy, Debug)]
    pub struct StampView<'a> {
        bytes: &'a [u8],
    }

    impl<'a> StampView<'a> {
        /// Validates `bytes` and wraps them without copying.
        pub fn new(bytes: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Stamp::validate(bytes)?;
            Ok(StampView { bytes })
        }

        /// Wraps bytes already covered by an enclosing `validate`.
        #[doc(hidden)]
        pub fn assume_valid(bytes: &'a [u8]) -> Self {
            StampView { bytes }
        }

        /// The underlying frame bytes.
        pub fn as_bytes(&self) -> &'a [u8] {
            self.bytes
        }

        /// Reads `secs` in place (offset 0).
        pub fn secs(&self) -> u64 {
            ::spring_buf::flat::get_u64(self.bytes, 0)
        }

        /// Reads `nanos` in place (offset 8).
        pub fn nanos(&self) -> u32 {
            ::spring_buf::flat::get_u32(self.bytes, 8)
        }

        /// Copies the view into an owned value (scalar loads only).
        pub fn to_owned(self) -> Stamp {
            Stamp {
                secs: self.secs(),
                nanos: self.nanos(),
            }
        }
    }

    impl<'a> ::subcontract::FlatMessage<'a> for StampView<'a> {
        const FOOTPRINT: usize = 12;

        fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            Stamp::validate(__b)
        }

        fn view(__b: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Self::new(__b)
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct Sample {
        pub when: super::flatbench::Stamp,
        pub a: u64,
        pub b: u64,
        pub c: u64,
        pub d: u64,
        pub seq: u32,
        pub kind: u8,
        pub urgent: bool,
        pub m: super::flatbench::Mode,
    }

    impl Sample {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
            (self.when).idl_encode(buf);
            buf.put_u64(self.a);
            buf.put_u64(self.b);
            buf.put_u64(self.c);
            buf.put_u64(self.d);
            buf.put_u32(self.seq);
            buf.put_u8(self.kind);
            buf.put_bool(self.urgent);
            (self.m).idl_encode(buf);
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
                when: super::flatbench::Stamp::idl_decode(buf)?,
                a: buf.get_u64()?,
                b: buf.get_u64()?,
                c: buf.get_u64()?,
                d: buf.get_u64()?,
                seq: buf.get_u32()?,
                kind: buf.get_u8()?,
                urgent: buf.get_bool()?,
                m: super::flatbench::Mode::idl_decode(buf)?,
            })
        }

        /// Exact flat-frame size from an 8-aligned frame start.
        pub const fn footprint() -> usize {
            60
        }

        /// Bounds-and-tags check over one flat frame; views and
        /// accessors are infallible afterwards (validate-then-cast).
        pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            ::spring_buf::flat::check_len(__b, 60)?;
            super::flatbench::Stamp::validate(&__b[0..12])?;
            ::spring_buf::flat::check_bool(__b, 53)?;
            ::spring_buf::flat::check_tag(__b, 56, 3)?;
            Ok(())
        }
    }

    /// Zero-copy view over a validated `Sample` flat frame.
    #[derive(Clone, Copy, Debug)]
    pub struct SampleView<'a> {
        bytes: &'a [u8],
    }

    impl<'a> SampleView<'a> {
        /// Validates `bytes` and wraps them without copying.
        pub fn new(bytes: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Sample::validate(bytes)?;
            Ok(SampleView { bytes })
        }

        /// Wraps bytes already covered by an enclosing `validate`.
        #[doc(hidden)]
        pub fn assume_valid(bytes: &'a [u8]) -> Self {
            SampleView { bytes }
        }

        /// The underlying frame bytes.
        pub fn as_bytes(&self) -> &'a [u8] {
            self.bytes
        }

        /// Reads `when` in place (offset 0).
        pub fn when(&self) -> super::flatbench::StampView<'a> {
            super::flatbench::StampView::assume_valid(&self.bytes[0..12])
        }

        /// Reads `a` in place (offset 16).
        pub fn a(&self) -> u64 {
            ::spring_buf::flat::get_u64(self.bytes, 16)
        }

        /// Reads `b` in place (offset 24).
        pub fn b(&self) -> u64 {
            ::spring_buf::flat::get_u64(self.bytes, 24)
        }

        /// Reads `c` in place (offset 32).
        pub fn c(&self) -> u64 {
            ::spring_buf::flat::get_u64(self.bytes, 32)
        }

        /// Reads `d` in place (offset 40).
        pub fn d(&self) -> u64 {
            ::spring_buf::flat::get_u64(self.bytes, 40)
        }

        /// Reads `seq` in place (offset 48).
        pub fn seq(&self) -> u32 {
            ::spring_buf::flat::get_u32(self.bytes, 48)
        }

        /// Reads `kind` in place (offset 52).
        pub fn kind(&self) -> u8 {
            ::spring_buf::flat::get_u8(self.bytes, 52)
        }

        /// Reads `urgent` in place (offset 53).
        pub fn urgent(&self) -> bool {
            ::spring_buf::flat::get_bool(self.bytes, 53)
        }

        /// Reads `m` in place (offset 56).
        pub fn m(&self) -> super::flatbench::Mode {
            super::flatbench::Mode::from_tag(::spring_buf::flat::get_u32(self.bytes, 56))
        }

        /// Copies the view into an owned value (scalar loads only).
        pub fn to_owned(self) -> Sample {
            Sample {
                when: self.when().to_owned(),
                a: self.a(),
                b: self.b(),
                c: self.c(),
                d: self.d(),
                seq: self.seq(),
                kind: self.kind(),
                urgent: self.urgent(),
                m: self.m(),
            }
        }
    }

    impl<'a> ::subcontract::FlatMessage<'a> for SampleView<'a> {
        const FOOTPRINT: usize = 60;

        fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            Sample::validate(__b)
        }

        fn view(__b: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Self::new(__b)
        }
    }

    /// Run-time type information for `flatbench::flat_ping`.
    pub static FLAT_PING_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
        name: "flatbench::flat_ping",
        parents: &[&::subcontract::OBJECT_TYPE],
        default_subcontract: ::subcontract::ScId::from_name("singleton"),
    };

    /// Operation numbers for `flatbench::flat_ping`.
    pub mod flat_ping_ops {
        pub const PING: u32 = 0x165df089;
        pub const ECHO_SAMPLE: u32 = 0x2143f74b;
        pub const SINK_SAMPLE: u32 = 0x12d2dd65;
    }

    /// Errors raised by `flatbench::flat_ping`'s own operations.
    #[derive(Debug)]
    pub enum FlatPingError {
        System(::subcontract::SpringError),
    }

    impl From<::subcontract::SpringError> for FlatPingError {
        fn from(e: ::subcontract::SpringError) -> Self {
            FlatPingError::System(e)
        }
    }

    impl From<::spring_buf::BufError> for FlatPingError {
        fn from(e: ::spring_buf::BufError) -> Self {
            FlatPingError::System(::subcontract::SpringError::Buf(e))
        }
    }

    impl From<::spring_buf::WireError> for FlatPingError {
        fn from(e: ::spring_buf::WireError) -> Self {
            FlatPingError::System(::subcontract::SpringError::Wire(e))
        }
    }

    impl ::std::fmt::Display for FlatPingError {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            match self {
                FlatPingError::System(__e) => write!(f, "{}", __e),
            }
        }
    }

    impl ::std::error::Error for FlatPingError {}

    /// Client stub for `flatbench::flat_ping` (subcontract-independent).
    #[derive(Debug)]
    pub struct FlatPing {
        obj: ::subcontract::SpringObj,
    }

    impl FlatPing {
        /// Wraps an object, verifying its run-time type.
        pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
            obj.narrow(&FLAT_PING_TYPE)?;
            Ok(FlatPing { obj })
        }

        /// The wrapped object.
        pub fn obj(&self) -> &::subcontract::SpringObj {
            &self.obj
        }

        /// Unwraps the object.
        pub fn into_obj(self) -> ::subcontract::SpringObj {
            self.obj
        }

        /// Shallow-copies the object (§7).
        pub fn copy(&self) -> ::subcontract::Result<Self> {
            Ok(FlatPing { obj: self.obj.copy()? })
        }

        /// Invokes `flatbench::flat_ping::ping` on the remote object.
        pub fn ping(&self, token: u64) -> ::std::result::Result<u64, super::flatbench::FlatPingError> {
            let mut __call = self.obj.start_call(super::flatbench::flat_ping_ops::PING)?;
            __call.align8();
            (&mut __call).put_u64(token);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_u64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::flatbench::FlatPingError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `flatbench::flat_ping::echo_sample` on the remote object.
        pub fn echo_sample(&self, s: &super::flatbench::Sample) -> ::std::result::Result<super::flatbench::Sample, super::flatbench::FlatPingError> {
            let mut __call = self.obj.start_call(super::flatbench::flat_ping_ops::ECHO_SAMPLE)?;
            __call.align8();
            ((*s)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 60)?;
                    super::flatbench::Sample::validate(&__flat[0..60])?;
                    let __r0 = super::flatbench::SampleView::assume_valid(&__flat[0..60]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::flatbench::FlatPingError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `flatbench::flat_ping::sink_sample` on the remote object.
        pub fn sink_sample(&self, s: &super::flatbench::Sample) -> ::std::result::Result<(), super::flatbench::FlatPingError> {
            let mut __call = self.obj.start_call(super::flatbench::flat_ping_ops::SINK_SAMPLE)?;
            __call.align8();
            ((*s)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::flatbench::FlatPingError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }
    }

    /// Server application interface for `flatbench::flat_ping`.
    pub trait FlatPingServant: Send + Sync + 'static {
        /// Serves `flatbench::flat_ping::ping`.
        fn ping(&self, token: u64) -> ::std::result::Result<u64, super::flatbench::FlatPingError>;
        /// Serves `flatbench::flat_ping::echo_sample`.
        fn echo_sample(&self, s: super::flatbench::Sample) -> ::std::result::Result<super::flatbench::Sample, super::flatbench::FlatPingError>;
        /// Serves `flatbench::flat_ping::sink_sample`.
        fn sink_sample(&self, s: super::flatbench::Sample) -> ::std::result::Result<(), super::flatbench::FlatPingError>;
        /// The last door identifier for this object died (§7).
        fn unreferenced(&self) {}
    }

    /// Server-side stub (skeleton) for `flatbench::flat_ping`: unmarshals arguments and calls into the server application (§4).
    pub struct FlatPingSkeleton<S: FlatPingServant> {
        servant: ::std::sync::Arc<S>,
    }

    impl<S: FlatPingServant> FlatPingSkeleton<S> {
        /// Wraps a servant for export through any server subcontract.
        pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
            ::std::sync::Arc::new(FlatPingSkeleton { servant })
        }
    }

    impl<S: FlatPingServant> ::subcontract::Dispatch for FlatPingSkeleton<S> {
        fn type_info(&self) -> &'static ::subcontract::TypeInfo {
            &FLAT_PING_TYPE
        }

        fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
            match __op {
                __x if __x == super::flatbench::flat_ping_ops::PING => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __a_token = ::spring_buf::flat::get_u64(__flat, 0);
                    match self.servant.ping(__a_token) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_u64(__r0);
                        }
                        Err(super::flatbench::FlatPingError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::flatbench::flat_ping_ops::ECHO_SAMPLE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 60)?;
                    super::flatbench::Sample::validate(&__flat[0..60])?;
                    let __a_s = super::flatbench::SampleView::assume_valid(&__flat[0..60]).to_owned();
                    match self.servant.echo_sample(__a_s) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::flatbench::FlatPingError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::flatbench::flat_ping_ops::SINK_SAMPLE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 60)?;
                    super::flatbench::Sample::validate(&__flat[0..60])?;
                    let __a_s = super::flatbench::SampleView::assume_valid(&__flat[0..60]).to_owned();
                    match self.servant.sink_sample(__a_s) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::flatbench::FlatPingError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __other => Err(::subcontract::SpringError::UnknownOp(__other)),
            }
        }

        fn unreferenced(&self) {
            <S as FlatPingServant>::unreferenced(&self.servant)
        }
    }
}
