// Generated by idlc (spring-idl). Do not edit.


#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Level {
    Low,
    High,
}

impl Level {
    pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
        buf.put_u32(match self {
            Level::Low => 0,
            Level::High => 1,
        });
    }

    pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
        Ok(match buf.get_u32()? {
            0 => Level::Low,
            1 => Level::High,
            __tag => return Err(::subcontract::SpringError::Buf(::spring_buf::BufError::InvalidEnumTag(__tag))),
        })
    }

    /// Flat-frame check: a single in-range `u32` tag.
    pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
        ::spring_buf::flat::check_len(__b, 4)?;
        ::spring_buf::flat::check_tag(__b, 0, 2)?;
        Ok(())
    }

    /// Decodes a tag already range-checked by `validate`.
    #[doc(hidden)]
    pub fn from_tag(__tag: u32) -> Self {
        match __tag {
            0 => Level::Low,
            1 => Level::High,
            __t => unreachable!("enum tag {} after validate", __t),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Inner {
    pub stamp: u64,
    pub kind: u8,
}

impl Inner {
    pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
        buf.align8();
        buf.put_u64(self.stamp);
        buf.put_u8(self.kind);
    }

    pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
        buf.skip_align8()?;
        Ok(Self {
            stamp: buf.get_u64()?,
            kind: buf.get_u8()?,
        })
    }

    /// Exact flat-frame size from an 8-aligned frame start.
    pub const fn footprint() -> usize {
        9
    }

    /// Bounds-and-tags check over one flat frame; views and
    /// accessors are infallible afterwards (validate-then-cast).
    pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
        ::spring_buf::flat::check_len(__b, 9)?;
        Ok(())
    }
}

/// Zero-copy view over a validated `Inner` flat frame.
#[derive(Clone, Copy, Debug)]
pub struct InnerView<'a> {
    bytes: &'a [u8],
}

impl<'a> InnerView<'a> {
    /// Validates `bytes` and wraps them without copying.
    pub fn new(bytes: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
        Inner::validate(bytes)?;
        Ok(InnerView { bytes })
    }

    /// Wraps bytes already covered by an enclosing `validate`.
    #[doc(hidden)]
    pub fn assume_valid(bytes: &'a [u8]) -> Self {
        InnerView { bytes }
    }

    /// The underlying frame bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Reads `stamp` in place (offset 0).
    pub fn stamp(&self) -> u64 {
        ::spring_buf::flat::get_u64(self.bytes, 0)
    }

    /// Reads `kind` in place (offset 8).
    pub fn kind(&self) -> u8 {
        ::spring_buf::flat::get_u8(self.bytes, 8)
    }

    /// Copies the view into an owned value (scalar loads only).
    pub fn to_owned(self) -> Inner {
        Inner {
            stamp: self.stamp(),
            kind: self.kind(),
        }
    }
}

impl<'a> ::subcontract::FlatMessage<'a> for InnerView<'a> {
    const FOOTPRINT: usize = 9;

    fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
        Inner::validate(__b)
    }

    fn view(__b: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
        Self::new(__b)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Reading {
    pub source: self::Inner,
    pub lvl: self::Level,
    pub urgent: bool,
    pub value: f64,
}

impl Reading {
    pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
        buf.align8();
        (self.source).idl_encode(buf);
        (self.lvl).idl_encode(buf);
        buf.put_bool(self.urgent);
        buf.put_f64(self.value);
    }

    pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
        buf.skip_align8()?;
        Ok(Self {
            source: self::Inner::idl_decode(buf)?,
            lvl: self::Level::idl_decode(buf)?,
            urgent: buf.get_bool()?,
            value: buf.get_f64()?,
        })
    }

    /// Exact flat-frame size from an 8-aligned frame start.
    pub const fn footprint() -> usize {
        32
    }

    /// Bounds-and-tags check over one flat frame; views and
    /// accessors are infallible afterwards (validate-then-cast).
    pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
        ::spring_buf::flat::check_len(__b, 32)?;
        self::Inner::validate(&__b[0..9])?;
        ::spring_buf::flat::check_tag(__b, 12, 2)?;
        ::spring_buf::flat::check_bool(__b, 16)?;
        Ok(())
    }
}

/// Zero-copy view over a validated `Reading` flat frame.
#[derive(Clone, Copy, Debug)]
pub struct ReadingView<'a> {
    bytes: &'a [u8],
}

impl<'a> ReadingView<'a> {
    /// Validates `bytes` and wraps them without copying.
    pub fn new(bytes: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
        Reading::validate(bytes)?;
        Ok(ReadingView { bytes })
    }

    /// Wraps bytes already covered by an enclosing `validate`.
    #[doc(hidden)]
    pub fn assume_valid(bytes: &'a [u8]) -> Self {
        ReadingView { bytes }
    }

    /// The underlying frame bytes.
    pub fn as_bytes(&self) -> &'a [u8] {
        self.bytes
    }

    /// Reads `source` in place (offset 0).
    pub fn source(&self) -> self::InnerView<'a> {
        self::InnerView::assume_valid(&self.bytes[0..9])
    }

    /// Reads `lvl` in place (offset 12).
    pub fn lvl(&self) -> self::Level {
        self::Level::from_tag(::spring_buf::flat::get_u32(self.bytes, 12))
    }

    /// Reads `urgent` in place (offset 16).
    pub fn urgent(&self) -> bool {
        ::spring_buf::flat::get_bool(self.bytes, 16)
    }

    /// Reads `value` in place (offset 24).
    pub fn value(&self) -> f64 {
        ::spring_buf::flat::get_f64(self.bytes, 24)
    }

    /// Copies the view into an owned value (scalar loads only).
    pub fn to_owned(self) -> Reading {
        Reading {
            source: self.source().to_owned(),
            lvl: self.lvl(),
            urgent: self.urgent(),
            value: self.value(),
        }
    }
}

impl<'a> ::subcontract::FlatMessage<'a> for ReadingView<'a> {
    const FOOTPRINT: usize = 32;

    fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
        Reading::validate(__b)
    }

    fn view(__b: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
        Self::new(__b)
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct Labeled {
    pub label: String,
    pub count: i32,
}

impl Labeled {
    pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
        buf.align8();
        buf.put_string(&self.label);
        buf.put_i32(self.count);
    }

    pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
        buf.skip_align8()?;
        Ok(Self {
            label: buf.get_string()?,
            count: buf.get_i32()?,
        })
    }
}

/// Run-time type information for `sensor`.
pub static SENSOR_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
    name: "sensor",
    parents: &[&::subcontract::OBJECT_TYPE],
    default_subcontract: ::subcontract::ScId::from_name("singleton"),
};

/// Operation numbers for `sensor`.
pub mod sensor_ops {
    pub const SAMPLE: u32 = 0x96e382a7;
    pub const STORE: u32 = 0xc7e7bc2e;
    pub const DESCRIBE: u32 = 0x511659e8;
}

/// Errors raised by `sensor`'s own operations.
#[derive(Debug)]
pub enum SensorError {
    System(::subcontract::SpringError),
}

impl From<::subcontract::SpringError> for SensorError {
    fn from(e: ::subcontract::SpringError) -> Self {
        SensorError::System(e)
    }
}

impl From<::spring_buf::BufError> for SensorError {
    fn from(e: ::spring_buf::BufError) -> Self {
        SensorError::System(::subcontract::SpringError::Buf(e))
    }
}

impl From<::spring_buf::WireError> for SensorError {
    fn from(e: ::spring_buf::WireError) -> Self {
        SensorError::System(::subcontract::SpringError::Wire(e))
    }
}

impl ::std::fmt::Display for SensorError {
    fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
        match self {
            SensorError::System(__e) => write!(f, "{}", __e),
        }
    }
}

impl ::std::error::Error for SensorError {}

/// Client stub for `sensor` (subcontract-independent).
#[derive(Debug)]
pub struct Sensor {
    obj: ::subcontract::SpringObj,
}

impl Sensor {
    /// Wraps an object, verifying its run-time type.
    pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
        obj.narrow(&SENSOR_TYPE)?;
        Ok(Sensor { obj })
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
        Ok(Sensor { obj: self.obj.copy()? })
    }

    /// Invokes `sensor::sample` on the remote object.
    pub fn sample(&self, count: u32) -> ::std::result::Result<self::Reading, self::SensorError> {
        let mut __call = self.obj.start_call(self::sensor_ops::SAMPLE)?;
        __call.align8();
        (&mut __call).put_u32(count);
        let mut __reply = self.obj.invoke(__call)?;
        match ::subcontract::decode_reply_status(&mut __reply)? {
            ::subcontract::ReplyStatus::Ok => {
                let __flat = __reply.flat_remaining()?;
                ::spring_buf::flat::check_len(__flat, 32)?;
                self::Reading::validate(&__flat[0..32])?;
                let __r0 = self::ReadingView::assume_valid(&__flat[0..32]).to_owned();
                Ok(__r0)
            }
            ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                __other => Err(self::SensorError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
            },
        }
    }

    /// Invokes `sensor::store` on the remote object.
    pub fn store(&self, r: &self::Reading, l: &self::Labeled) -> ::std::result::Result<(), self::SensorError> {
        let mut __call = self.obj.start_call(self::sensor_ops::STORE)?;
        ((*r)).idl_encode(&mut __call);
        ((*l)).idl_encode(&mut __call);
        let mut __reply = self.obj.invoke(__call)?;
        match ::subcontract::decode_reply_status(&mut __reply)? {
            ::subcontract::ReplyStatus::Ok => {
                Ok(())
            }
            ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                __other => Err(self::SensorError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
            },
        }
    }

    /// Invokes `sensor::describe` on the remote object.
    pub fn describe(&self) -> ::std::result::Result<self::Labeled, self::SensorError> {
        let mut __call = self.obj.start_call(self::sensor_ops::DESCRIBE)?;
        let mut __reply = self.obj.invoke(__call)?;
        match ::subcontract::decode_reply_status(&mut __reply)? {
            ::subcontract::ReplyStatus::Ok => {
                let __r0 = self::Labeled::idl_decode(&mut __reply)?;
                Ok(__r0)
            }
            ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                __other => Err(self::SensorError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
            },
        }
    }
}

/// Server application interface for `sensor`.
pub trait SensorServant: Send + Sync + 'static {
    /// Serves `sensor::sample`.
    fn sample(&self, count: u32) -> ::std::result::Result<self::Reading, self::SensorError>;
    /// Serves `sensor::store`.
    fn store(&self, r: self::Reading, l: self::Labeled) -> ::std::result::Result<(), self::SensorError>;
    /// Serves `sensor::describe`.
    fn describe(&self) -> ::std::result::Result<self::Labeled, self::SensorError>;
    /// The last door identifier for this object died (§7).
    fn unreferenced(&self) {}
}

/// Server-side stub (skeleton) for `sensor`: unmarshals arguments and calls into the server application (§4).
pub struct SensorSkeleton<S: SensorServant> {
    servant: ::std::sync::Arc<S>,
}

impl<S: SensorServant> SensorSkeleton<S> {
    /// Wraps a servant for export through any server subcontract.
    pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
        ::std::sync::Arc::new(SensorSkeleton { servant })
    }
}

impl<S: SensorServant> ::subcontract::Dispatch for SensorSkeleton<S> {
    fn type_info(&self) -> &'static ::subcontract::TypeInfo {
        &SENSOR_TYPE
    }

    fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
        match __op {
            __x if __x == self::sensor_ops::SAMPLE => {
                let __flat = __args.flat_remaining()?;
                ::spring_buf::flat::check_len(__flat, 4)?;
                let __a_count = ::spring_buf::flat::get_u32(__flat, 0);
                match self.servant.sample(__a_count) {
                    Ok(__r0) => {
                        ::subcontract::encode_ok(__reply);
                        __reply.align8();
                        (__r0).idl_encode(__reply);
                    }
                    Err(self::SensorError::System(__e)) => return Err(__e),
                }
                Ok(())
            }
            __x if __x == self::sensor_ops::STORE => {
                let __a_r = self::Reading::idl_decode(__args)?;
                let __a_l = self::Labeled::idl_decode(__args)?;
                match self.servant.store(__a_r, __a_l) {
                    Ok(()) => {
                        ::subcontract::encode_ok(__reply);
                    }
                    Err(self::SensorError::System(__e)) => return Err(__e),
                }
                Ok(())
            }
            __x if __x == self::sensor_ops::DESCRIBE => {
                match self.servant.describe() {
                    Ok(__r0) => {
                        ::subcontract::encode_ok(__reply);
                        (__r0).idl_encode(__reply);
                    }
                    Err(self::SensorError::System(__e)) => return Err(__e),
                }
                Ok(())
            }
            __other => Err(::subcontract::SpringError::UnknownOp(__other)),
        }
    }

    fn unreferenced(&self) {
        <S as SensorServant>::unreferenced(&self.servant)
    }
}

pub mod geo {
    pub const MAX_POINTS: i32 = 64;
    pub const VERSION: u8 = 3;
    pub const BANNER: &str = "geo";
    pub const STRICT: bool = true;
    pub type Ids = Vec<i32>;
    pub type InnerAlias = super::Inner;

    #[derive(Clone, Debug, PartialEq)]
    pub struct Point {
        pub x: f64,
        pub y: f64,
        pub type_: i16,
    }

    impl Point {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
            buf.put_f64(self.x);
            buf.put_f64(self.y);
            buf.put_i16(self.type_);
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
                x: buf.get_f64()?,
                y: buf.get_f64()?,
                type_: buf.get_i16()?,
            })
        }

        /// Exact flat-frame size from an 8-aligned frame start.
        pub const fn footprint() -> usize {
            18
        }

        /// Bounds-and-tags check over one flat frame; views and
        /// accessors are infallible afterwards (validate-then-cast).
        pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            ::spring_buf::flat::check_len(__b, 18)?;
            Ok(())
        }
    }

    /// Zero-copy view over a validated `Point` flat frame.
    #[derive(Clone, Copy, Debug)]
    pub struct PointView<'a> {
        bytes: &'a [u8],
    }

    impl<'a> PointView<'a> {
        /// Validates `bytes` and wraps them without copying.
        pub fn new(bytes: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Point::validate(bytes)?;
            Ok(PointView { bytes })
        }

        /// Wraps bytes already covered by an enclosing `validate`.
        #[doc(hidden)]
        pub fn assume_valid(bytes: &'a [u8]) -> Self {
            PointView { bytes }
        }

        /// The underlying frame bytes.
        pub fn as_bytes(&self) -> &'a [u8] {
            self.bytes
        }

        /// Reads `x` in place (offset 0).
        pub fn x(&self) -> f64 {
            ::spring_buf::flat::get_f64(self.bytes, 0)
        }

        /// Reads `y` in place (offset 8).
        pub fn y(&self) -> f64 {
            ::spring_buf::flat::get_f64(self.bytes, 8)
        }

        /// Reads `type` in place (offset 16).
        pub fn type_(&self) -> i16 {
            ::spring_buf::flat::get_i16(self.bytes, 16)
        }

        /// Copies the view into an owned value (scalar loads only).
        pub fn to_owned(self) -> Point {
            Point {
                x: self.x(),
                y: self.y(),
                type_: self.type_(),
            }
        }
    }

    impl<'a> ::subcontract::FlatMessage<'a> for PointView<'a> {
        const FOOTPRINT: usize = 18;

        fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            Point::validate(__b)
        }

        fn view(__b: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Self::new(__b)
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct Tagged {
        pub origin: super::geo::InnerAlias,
        pub at: super::geo::Point,
        pub lvl: super::Level,
    }

    impl Tagged {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
            (self.origin).idl_encode(buf);
            (self.at).idl_encode(buf);
            (self.lvl).idl_encode(buf);
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
                origin: super::Inner::idl_decode(buf)?,
                at: super::geo::Point::idl_decode(buf)?,
                lvl: super::Level::idl_decode(buf)?,
            })
        }

        /// Exact flat-frame size from an 8-aligned frame start.
        pub const fn footprint() -> usize {
            40
        }

        /// Bounds-and-tags check over one flat frame; views and
        /// accessors are infallible afterwards (validate-then-cast).
        pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            ::spring_buf::flat::check_len(__b, 40)?;
            super::Inner::validate(&__b[0..9])?;
            super::geo::Point::validate(&__b[16..34])?;
            ::spring_buf::flat::check_tag(__b, 36, 2)?;
            Ok(())
        }
    }

    /// Zero-copy view over a validated `Tagged` flat frame.
    #[derive(Clone, Copy, Debug)]
    pub struct TaggedView<'a> {
        bytes: &'a [u8],
    }

    impl<'a> TaggedView<'a> {
        /// Validates `bytes` and wraps them without copying.
        pub fn new(bytes: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Tagged::validate(bytes)?;
            Ok(TaggedView { bytes })
        }

        /// Wraps bytes already covered by an enclosing `validate`.
        #[doc(hidden)]
        pub fn assume_valid(bytes: &'a [u8]) -> Self {
            TaggedView { bytes }
        }

        /// The underlying frame bytes.
        pub fn as_bytes(&self) -> &'a [u8] {
            self.bytes
        }

        /// Reads `origin` in place (offset 0).
        pub fn origin(&self) -> super::InnerView<'a> {
            super::InnerView::assume_valid(&self.bytes[0..9])
        }

        /// Reads `at` in place (offset 16).
        pub fn at(&self) -> super::geo::PointView<'a> {
            super::geo::PointView::assume_valid(&self.bytes[16..34])
        }

        /// Reads `lvl` in place (offset 36).
        pub fn lvl(&self) -> super::Level {
            super::Level::from_tag(::spring_buf::flat::get_u32(self.bytes, 36))
        }

        /// Copies the view into an owned value (scalar loads only).
        pub fn to_owned(self) -> Tagged {
            Tagged {
                origin: self.origin().to_owned(),
                at: self.at().to_owned(),
                lvl: self.lvl(),
            }
        }
    }

    impl<'a> ::subcontract::FlatMessage<'a> for TaggedView<'a> {
        const FOOTPRINT: usize = 40;

        fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            Tagged::validate(__b)
        }

        fn view(__b: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Self::new(__b)
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct Prims {
        pub b: bool,
        pub o: u8,
        pub s: i16,
        pub us: u16,
        pub l: i32,
        pub ul: u32,
        pub ll: i64,
        pub ull: u64,
        pub f: f32,
        pub d: f64,
    }

    impl Prims {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
            buf.put_bool(self.b);
            buf.put_u8(self.o);
            buf.put_i16(self.s);
            buf.put_u16(self.us);
            buf.put_i32(self.l);
            buf.put_u32(self.ul);
            buf.put_i64(self.ll);
            buf.put_u64(self.ull);
            buf.put_f32(self.f);
            buf.put_f64(self.d);
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
                b: buf.get_bool()?,
                o: buf.get_u8()?,
                s: buf.get_i16()?,
                us: buf.get_u16()?,
                l: buf.get_i32()?,
                ul: buf.get_u32()?,
                ll: buf.get_i64()?,
                ull: buf.get_u64()?,
                f: buf.get_f32()?,
                d: buf.get_f64()?,
            })
        }

        /// Exact flat-frame size from an 8-aligned frame start.
        pub const fn footprint() -> usize {
            48
        }

        /// Bounds-and-tags check over one flat frame; views and
        /// accessors are infallible afterwards (validate-then-cast).
        pub fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            ::spring_buf::flat::check_len(__b, 48)?;
            ::spring_buf::flat::check_bool(__b, 0)?;
            Ok(())
        }
    }

    /// Zero-copy view over a validated `Prims` flat frame.
    #[derive(Clone, Copy, Debug)]
    pub struct PrimsView<'a> {
        bytes: &'a [u8],
    }

    impl<'a> PrimsView<'a> {
        /// Validates `bytes` and wraps them without copying.
        pub fn new(bytes: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Prims::validate(bytes)?;
            Ok(PrimsView { bytes })
        }

        /// Wraps bytes already covered by an enclosing `validate`.
        #[doc(hidden)]
        pub fn assume_valid(bytes: &'a [u8]) -> Self {
            PrimsView { bytes }
        }

        /// The underlying frame bytes.
        pub fn as_bytes(&self) -> &'a [u8] {
            self.bytes
        }

        /// Reads `b` in place (offset 0).
        pub fn b(&self) -> bool {
            ::spring_buf::flat::get_bool(self.bytes, 0)
        }

        /// Reads `o` in place (offset 1).
        pub fn o(&self) -> u8 {
            ::spring_buf::flat::get_u8(self.bytes, 1)
        }

        /// Reads `s` in place (offset 2).
        pub fn s(&self) -> i16 {
            ::spring_buf::flat::get_i16(self.bytes, 2)
        }

        /// Reads `us` in place (offset 4).
        pub fn us(&self) -> u16 {
            ::spring_buf::flat::get_u16(self.bytes, 4)
        }

        /// Reads `l` in place (offset 8).
        pub fn l(&self) -> i32 {
            ::spring_buf::flat::get_i32(self.bytes, 8)
        }

        /// Reads `ul` in place (offset 12).
        pub fn ul(&self) -> u32 {
            ::spring_buf::flat::get_u32(self.bytes, 12)
        }

        /// Reads `ll` in place (offset 16).
        pub fn ll(&self) -> i64 {
            ::spring_buf::flat::get_i64(self.bytes, 16)
        }

        /// Reads `ull` in place (offset 24).
        pub fn ull(&self) -> u64 {
            ::spring_buf::flat::get_u64(self.bytes, 24)
        }

        /// Reads `f` in place (offset 32).
        pub fn f(&self) -> f32 {
            ::spring_buf::flat::get_f32(self.bytes, 32)
        }

        /// Reads `d` in place (offset 40).
        pub fn d(&self) -> f64 {
            ::spring_buf::flat::get_f64(self.bytes, 40)
        }

        /// Copies the view into an owned value (scalar loads only).
        pub fn to_owned(self) -> Prims {
            Prims {
                b: self.b(),
                o: self.o(),
                s: self.s(),
                us: self.us(),
                l: self.l(),
                ul: self.ul(),
                ll: self.ll(),
                ull: self.ull(),
                f: self.f(),
                d: self.d(),
            }
        }
    }

    impl<'a> ::subcontract::FlatMessage<'a> for PrimsView<'a> {
        const FOOTPRINT: usize = 48;

        fn validate(__b: &[u8]) -> ::std::result::Result<(), ::spring_buf::WireError> {
            Prims::validate(__b)
        }

        fn view(__b: &'a [u8]) -> ::std::result::Result<Self, ::spring_buf::WireError> {
            Self::new(__b)
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct OutOfRange {
        pub limit: i32,
        pub why: String,
    }

    impl OutOfRange {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
            buf.put_i32(self.limit);
            buf.put_string(&self.why);
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
                limit: buf.get_i32()?,
                why: buf.get_string()?,
            })
        }
    }

    #[derive(Clone, Debug, PartialEq)]
    pub struct Busy {
    }

    impl Busy {
        pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
            buf.align8();
        }

        pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
            buf.skip_align8()?;
            Ok(Self {
            })
        }
    }

    pub mod store {

        #[derive(Clone, Debug, PartialEq)]
        pub struct Batch {
            pub members: super::super::geo::Ids,
            pub path: Vec<super::super::geo::Point>,
            pub blob: Vec<u8>,
            pub names: Vec<String>,
        }

        impl Batch {
            pub fn idl_encode(&self, buf: &mut ::spring_buf::CommBuffer) {
                buf.align8();
                buf.put_seq_len(self.members.len());
                for __it in &self.members {
                    buf.put_i32((*__it));
                }
                buf.put_seq_len(self.path.len());
                for __it in &self.path {
                    ((*__it)).idl_encode(buf);
                }
                buf.put_bytes(&self.blob);
                buf.put_seq_len(self.names.len());
                for __it in &self.names {
                    buf.put_string(&(*__it));
                }
            }

            pub fn idl_decode(buf: &mut ::spring_buf::CommBuffer) -> ::std::result::Result<Self, ::subcontract::SpringError> {
                buf.skip_align8()?;
                Ok(Self {
                    members: { let __n = buf.get_seq_len(4)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push(buf.get_i32()?); } __v },
                    path: { let __n = buf.get_seq_len(18)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push(super::super::geo::Point::idl_decode(buf)?); } __v },
                    blob: buf.get_bytes()?,
                    names: { let __n = buf.get_seq_len(4)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push(buf.get_string()?); } __v },
                })
            }
        }
    }
}

pub mod shapes {

    /// Run-time type information for `shapes::shape`.
    pub static SHAPE_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
        name: "shapes::shape",
        parents: &[&::subcontract::OBJECT_TYPE],
        default_subcontract: ::subcontract::ScId::from_name("singleton"),
    };

    /// Operation numbers for `shapes::shape`.
    pub mod shape_ops {
        pub const GET_AREA: u32 = 0x1f8d0cb1;
        pub const GET_CENTER: u32 = 0xcd53b441;
        pub const SET_CENTER: u32 = 0x4920807d;
        pub const GET_LABEL: u32 = 0xcba016e6;
        pub const SET_LABEL: u32 = 0xfb0a1552;
        pub const TRANSLATE: u32 = 0xad0ecfd5;
        pub const BOUNDS: u32 = 0x3d56aa08;
        pub const LOCATE: u32 = 0x5adf8d3f;
        pub const NEAR: u32 = 0x54f3570f;
        pub const COUNT_NAMED: u32 = 0x41de328a;
        pub const TAG: u32 = 0x95f72993;
        pub const RENAME: u32 = 0x81f2b7d3;
        pub const ECHO_PRIMS: u32 = 0x3180aace;
    }

    /// Errors raised by `shapes::shape`'s own operations.
    #[derive(Debug)]
    pub enum ShapeError {
        OutOfRange(super::geo::OutOfRange),
        Busy(super::geo::Busy),
        System(::subcontract::SpringError),
    }

    impl From<::subcontract::SpringError> for ShapeError {
        fn from(e: ::subcontract::SpringError) -> Self {
            ShapeError::System(e)
        }
    }

    impl From<::spring_buf::BufError> for ShapeError {
        fn from(e: ::spring_buf::BufError) -> Self {
            ShapeError::System(::subcontract::SpringError::Buf(e))
        }
    }

    impl From<::spring_buf::WireError> for ShapeError {
        fn from(e: ::spring_buf::WireError) -> Self {
            ShapeError::System(::subcontract::SpringError::Wire(e))
        }
    }

    impl ::std::fmt::Display for ShapeError {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            match self {
                ShapeError::OutOfRange(__e) => write!(f, "geo::out_of_range: {:?}", __e),
                ShapeError::Busy(__e) => write!(f, "geo::busy: {:?}", __e),
                ShapeError::System(__e) => write!(f, "{}", __e),
            }
        }
    }

    impl ::std::error::Error for ShapeError {}

    /// Client stub for `shapes::shape` (subcontract-independent).
    #[derive(Debug)]
    pub struct Shape {
        obj: ::subcontract::SpringObj,
    }

    impl Shape {
        /// Wraps an object, verifying its run-time type.
        pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
            obj.narrow(&SHAPE_TYPE)?;
            Ok(Shape { obj })
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
            Ok(Shape { obj: self.obj.copy()? })
        }

        /// Invokes `shapes::shape::get_area` on the remote object.
        pub fn get_area(&self) -> ::std::result::Result<f64, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::GET_AREA)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_f64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::get_center` on the remote object.
        pub fn get_center(&self) -> ::std::result::Result<super::geo::Point, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::GET_CENTER)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 18)?;
                    super::geo::Point::validate(&__flat[0..18])?;
                    let __r0 = super::geo::PointView::assume_valid(&__flat[0..18]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::set_center` on the remote object.
        pub fn set_center(&self, value: &super::geo::Point) -> ::std::result::Result<(), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::SET_CENTER)?;
            __call.align8();
            ((*value)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::get_label` on the remote object.
        pub fn get_label(&self) -> ::std::result::Result<String, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::GET_LABEL)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = (&mut __reply).get_string()?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::set_label` on the remote object.
        pub fn set_label(&self, value: &str) -> ::std::result::Result<(), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::SET_LABEL)?;
            (&mut __call).put_string(&(*value));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::translate` on the remote object.
        pub fn translate(&self, dx: f64, dy: f64) -> ::std::result::Result<(i32, f64, bool, super::geo::Point), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::TRANSLATE)?;
            __call.align8();
            (&mut __call).put_f64(dx);
            (&mut __call).put_f64(dy);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 42)?;
                    ::spring_buf::flat::check_bool(__flat, 16)?;
                    super::geo::Point::validate(&__flat[24..42])?;
                    let __r0 = ::spring_buf::flat::get_i32(__flat, 0);
                    let __r1 = ::spring_buf::flat::get_f64(__flat, 8);
                    let __r2 = ::spring_buf::flat::get_bool(__flat, 16);
                    let __r3 = super::geo::PointView::assume_valid(&__flat[24..42]).to_owned();
                    Ok((__r0, __r1, __r2, __r3))
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "geo::out_of_range" => Err(super::shapes::ShapeError::OutOfRange(super::geo::OutOfRange::idl_decode(&mut __reply)?)),
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::bounds` on the remote object.
        pub fn bounds(&self) -> ::std::result::Result<(i32, i32), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::BOUNDS)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i32(__flat, 0);
                    let __r1 = ::spring_buf::flat::get_i32(__flat, 4);
                    Ok((__r0, __r1))
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::locate` on the remote object.
        pub fn locate(&self, which: &[i32], match_: i32) -> ::std::result::Result<super::geo::Tagged, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::LOCATE)?;
            (&mut __call).put_seq_len((*which).len());
            for __it in &(*which) {
                (&mut __call).put_i32((*__it));
            }
            (&mut __call).put_i32(match_);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 40)?;
                    super::geo::Tagged::validate(&__flat[0..40])?;
                    let __r0 = super::geo::TaggedView::assume_valid(&__flat[0..40]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "geo::out_of_range" => Err(super::shapes::ShapeError::OutOfRange(super::geo::OutOfRange::idl_decode(&mut __reply)?)),
                    "geo::busy" => Err(super::shapes::ShapeError::Busy(super::geo::Busy::idl_decode(&mut __reply)?)),
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::near` on the remote object.
        pub fn near(&self, p: &super::geo::Point) -> ::std::result::Result<Vec<i32>, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::NEAR)?;
            __call.align8();
            ((*p)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = { let __n = (&mut __reply).get_seq_len(4)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push((&mut __reply).get_i32()?); } __v };
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::count_named` on the remote object.
        pub fn count_named(&self, prefix: &str) -> ::std::result::Result<i32, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::COUNT_NAMED)?;
            (&mut __call).put_string(&(*prefix));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 4)?;
                    let __r0 = ::spring_buf::flat::get_i32(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::tag` on the remote object.
        pub fn tag(&self, b: &super::geo::store::Batch) -> ::std::result::Result<(), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::TAG)?;
            ((*b)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "geo::busy" => Err(super::shapes::ShapeError::Busy(super::geo::Busy::idl_decode(&mut __reply)?)),
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::rename` on the remote object.
        pub fn rename(&self, name: &str) -> ::std::result::Result<String, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::RENAME)?;
            (&mut __call).put_string(&(*name));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = (&mut __reply).get_string()?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::echo_prims` on the remote object.
        pub fn echo_prims(&self, p: &super::geo::Prims) -> ::std::result::Result<super::geo::Prims, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::shape_ops::ECHO_PRIMS)?;
            __call.align8();
            ((*p)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 48)?;
                    super::geo::Prims::validate(&__flat[0..48])?;
                    let __r0 = super::geo::PrimsView::assume_valid(&__flat[0..48]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }
    }

    /// Server application interface for `shapes::shape`.
    pub trait ShapeServant: Send + Sync + 'static {
        /// Serves `shapes::shape::get_area`.
        fn get_area(&self) -> ::std::result::Result<f64, super::shapes::ShapeError>;
        /// Serves `shapes::shape::get_center`.
        fn get_center(&self) -> ::std::result::Result<super::geo::Point, super::shapes::ShapeError>;
        /// Serves `shapes::shape::set_center`.
        fn set_center(&self, value: super::geo::Point) -> ::std::result::Result<(), super::shapes::ShapeError>;
        /// Serves `shapes::shape::get_label`.
        fn get_label(&self) -> ::std::result::Result<String, super::shapes::ShapeError>;
        /// Serves `shapes::shape::set_label`.
        fn set_label(&self, value: String) -> ::std::result::Result<(), super::shapes::ShapeError>;
        /// Serves `shapes::shape::translate`.
        fn translate(&self, dx: f64, dy: f64) -> ::std::result::Result<(i32, f64, bool, super::geo::Point), super::shapes::ShapeError>;
        /// Serves `shapes::shape::bounds`.
        fn bounds(&self) -> ::std::result::Result<(i32, i32), super::shapes::ShapeError>;
        /// Serves `shapes::shape::locate`.
        fn locate(&self, which: super::geo::Ids, match_: i32) -> ::std::result::Result<super::geo::Tagged, super::shapes::ShapeError>;
        /// Serves `shapes::shape::near`.
        fn near(&self, p: super::geo::Point) -> ::std::result::Result<Vec<i32>, super::shapes::ShapeError>;
        /// Serves `shapes::shape::count_named`.
        fn count_named(&self, prefix: String) -> ::std::result::Result<i32, super::shapes::ShapeError>;
        /// Serves `shapes::shape::tag`.
        fn tag(&self, b: super::geo::store::Batch) -> ::std::result::Result<(), super::shapes::ShapeError>;
        /// Serves `shapes::shape::rename`.
        fn rename(&self, name: String) -> ::std::result::Result<String, super::shapes::ShapeError>;
        /// Serves `shapes::shape::echo_prims`.
        fn echo_prims(&self, p: super::geo::Prims) -> ::std::result::Result<super::geo::Prims, super::shapes::ShapeError>;
        /// The last door identifier for this object died (§7).
        fn unreferenced(&self) {}
    }

    /// Server-side stub (skeleton) for `shapes::shape`: unmarshals arguments and calls into the server application (§4).
    pub struct ShapeSkeleton<S: ShapeServant> {
        servant: ::std::sync::Arc<S>,
    }

    impl<S: ShapeServant> ShapeSkeleton<S> {
        /// Wraps a servant for export through any server subcontract.
        pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
            ::std::sync::Arc::new(ShapeSkeleton { servant })
        }
    }

    impl<S: ShapeServant> ::subcontract::Dispatch for ShapeSkeleton<S> {
        fn type_info(&self) -> &'static ::subcontract::TypeInfo {
            &SHAPE_TYPE
        }

        fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
            match __op {
                __x if __x == super::shapes::shape_ops::GET_AREA => {
                    match self.servant.get_area() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_f64(__r0);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::GET_CENTER => {
                    match self.servant.get_center() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::SET_CENTER => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 18)?;
                    super::geo::Point::validate(&__flat[0..18])?;
                    let __a_value = super::geo::PointView::assume_valid(&__flat[0..18]).to_owned();
                    match self.servant.set_center(__a_value) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::GET_LABEL => {
                    match self.servant.get_label() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_string(&__r0);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::SET_LABEL => {
                    let __a_value = __args.get_string()?;
                    match self.servant.set_label(__a_value) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::TRANSLATE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 16)?;
                    let __a_dx = ::spring_buf::flat::get_f64(__flat, 0);
                    let __a_dy = ::spring_buf::flat::get_f64(__flat, 8);
                    match self.servant.translate(__a_dx, __a_dy) {
                        Ok((__r0, __r1, __r2, __r3)) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i32(__r0);
                            __reply.put_f64(__r1);
                            __reply.put_bool(__r2);
                            (__r3).idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::OutOfRange(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "geo::out_of_range");
                            __e.idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::BOUNDS => {
                    match self.servant.bounds() {
                        Ok((__r0, __r1)) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i32(__r0);
                            __reply.put_i32(__r1);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::LOCATE => {
                    let __a_which = { let __n = __args.get_seq_len(4)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push(__args.get_i32()?); } __v };
                    let __a_match_ = __args.get_i32()?;
                    match self.servant.locate(__a_which, __a_match_) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::OutOfRange(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "geo::out_of_range");
                            __e.idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::Busy(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "geo::busy");
                            __e.idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::NEAR => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 18)?;
                    super::geo::Point::validate(&__flat[0..18])?;
                    let __a_p = super::geo::PointView::assume_valid(&__flat[0..18]).to_owned();
                    match self.servant.near(__a_p) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_seq_len(__r0.len());
                            for __it in &__r0 {
                                __reply.put_i32((*__it));
                            }
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::COUNT_NAMED => {
                    let __a_prefix = __args.get_string()?;
                    match self.servant.count_named(__a_prefix) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i32(__r0);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::TAG => {
                    let __a_b = super::geo::store::Batch::idl_decode(__args)?;
                    match self.servant.tag(__a_b) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::shapes::ShapeError::Busy(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "geo::busy");
                            __e.idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::RENAME => {
                    let __a_name = __args.get_string()?;
                    match self.servant.rename(__a_name) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_string(&__r0);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::shape_ops::ECHO_PRIMS => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 48)?;
                    super::geo::Prims::validate(&__flat[0..48])?;
                    let __a_p = super::geo::PrimsView::assume_valid(&__flat[0..48]).to_owned();
                    match self.servant.echo_prims(__a_p) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __other => Err(::subcontract::SpringError::UnknownOp(__other)),
            }
        }

        fn unreferenced(&self) {
            <S as ShapeServant>::unreferenced(&self.servant)
        }
    }

    /// Run-time type information for `shapes::cached_shape`.
    pub static CACHED_SHAPE_TYPE: ::subcontract::TypeInfo = ::subcontract::TypeInfo {
        name: "shapes::cached_shape",
        parents: &[&super::shapes::SHAPE_TYPE],
        default_subcontract: ::subcontract::ScId::from_name("caching"),
    };

    /// Operation numbers for `shapes::cached_shape`.
    pub mod cached_shape_ops {
        pub const GET_AREA: u32 = 0x1f8d0cb1;
        pub const GET_CENTER: u32 = 0xcd53b441;
        pub const SET_CENTER: u32 = 0x4920807d;
        pub const GET_LABEL: u32 = 0xcba016e6;
        pub const SET_LABEL: u32 = 0xfb0a1552;
        pub const TRANSLATE: u32 = 0xad0ecfd5;
        pub const BOUNDS: u32 = 0x3d56aa08;
        pub const LOCATE: u32 = 0x5adf8d3f;
        pub const NEAR: u32 = 0x54f3570f;
        pub const COUNT_NAMED: u32 = 0x41de328a;
        pub const TAG: u32 = 0x95f72993;
        pub const RENAME: u32 = 0x81f2b7d3;
        pub const ECHO_PRIMS: u32 = 0x3180aace;
        pub const ATTACH: u32 = 0x4295b444;
        pub const ANYTHING: u32 = 0xb273a1f7;
        pub const TWIN: u32 = 0x9a8704f3;
        pub const AGAIN: u32 = 0xb33fe54f;
        pub const TUNE: u32 = 0x68410493;
    }

    /// Errors raised by `shapes::cached_shape`'s own operations.
    #[derive(Debug)]
    pub enum CachedShapeError {
        Busy(super::geo::Busy),
        System(::subcontract::SpringError),
    }

    impl From<::subcontract::SpringError> for CachedShapeError {
        fn from(e: ::subcontract::SpringError) -> Self {
            CachedShapeError::System(e)
        }
    }

    impl From<::spring_buf::BufError> for CachedShapeError {
        fn from(e: ::spring_buf::BufError) -> Self {
            CachedShapeError::System(::subcontract::SpringError::Buf(e))
        }
    }

    impl From<::spring_buf::WireError> for CachedShapeError {
        fn from(e: ::spring_buf::WireError) -> Self {
            CachedShapeError::System(::subcontract::SpringError::Wire(e))
        }
    }

    impl ::std::fmt::Display for CachedShapeError {
        fn fmt(&self, f: &mut ::std::fmt::Formatter<'_>) -> ::std::fmt::Result {
            match self {
                CachedShapeError::Busy(__e) => write!(f, "geo::busy: {:?}", __e),
                CachedShapeError::System(__e) => write!(f, "{}", __e),
            }
        }
    }

    impl ::std::error::Error for CachedShapeError {}

    /// Client stub for `shapes::cached_shape` (subcontract-independent).
    #[derive(Debug)]
    pub struct CachedShape {
        obj: ::subcontract::SpringObj,
    }

    impl CachedShape {
        /// Wraps an object, verifying its run-time type.
        pub fn from_obj(obj: ::subcontract::SpringObj) -> ::subcontract::Result<Self> {
            obj.narrow(&CACHED_SHAPE_TYPE)?;
            Ok(CachedShape { obj })
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
            Ok(CachedShape { obj: self.obj.copy()? })
        }

        /// Invokes `shapes::shape::get_area` on the remote object.
        pub fn get_area(&self) -> ::std::result::Result<f64, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::GET_AREA)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_f64(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::get_center` on the remote object.
        pub fn get_center(&self) -> ::std::result::Result<super::geo::Point, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::GET_CENTER)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 18)?;
                    super::geo::Point::validate(&__flat[0..18])?;
                    let __r0 = super::geo::PointView::assume_valid(&__flat[0..18]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::set_center` on the remote object.
        pub fn set_center(&self, value: &super::geo::Point) -> ::std::result::Result<(), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::SET_CENTER)?;
            __call.align8();
            ((*value)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::get_label` on the remote object.
        pub fn get_label(&self) -> ::std::result::Result<String, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::GET_LABEL)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = (&mut __reply).get_string()?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::set_label` on the remote object.
        pub fn set_label(&self, value: &str) -> ::std::result::Result<(), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::SET_LABEL)?;
            (&mut __call).put_string(&(*value));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::translate` on the remote object.
        pub fn translate(&self, dx: f64, dy: f64) -> ::std::result::Result<(i32, f64, bool, super::geo::Point), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::TRANSLATE)?;
            __call.align8();
            (&mut __call).put_f64(dx);
            (&mut __call).put_f64(dy);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 42)?;
                    ::spring_buf::flat::check_bool(__flat, 16)?;
                    super::geo::Point::validate(&__flat[24..42])?;
                    let __r0 = ::spring_buf::flat::get_i32(__flat, 0);
                    let __r1 = ::spring_buf::flat::get_f64(__flat, 8);
                    let __r2 = ::spring_buf::flat::get_bool(__flat, 16);
                    let __r3 = super::geo::PointView::assume_valid(&__flat[24..42]).to_owned();
                    Ok((__r0, __r1, __r2, __r3))
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "geo::out_of_range" => Err(super::shapes::ShapeError::OutOfRange(super::geo::OutOfRange::idl_decode(&mut __reply)?)),
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::bounds` on the remote object.
        pub fn bounds(&self) -> ::std::result::Result<(i32, i32), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::BOUNDS)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 8)?;
                    let __r0 = ::spring_buf::flat::get_i32(__flat, 0);
                    let __r1 = ::spring_buf::flat::get_i32(__flat, 4);
                    Ok((__r0, __r1))
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::locate` on the remote object.
        pub fn locate(&self, which: &[i32], match_: i32) -> ::std::result::Result<super::geo::Tagged, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::LOCATE)?;
            (&mut __call).put_seq_len((*which).len());
            for __it in &(*which) {
                (&mut __call).put_i32((*__it));
            }
            (&mut __call).put_i32(match_);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 40)?;
                    super::geo::Tagged::validate(&__flat[0..40])?;
                    let __r0 = super::geo::TaggedView::assume_valid(&__flat[0..40]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "geo::out_of_range" => Err(super::shapes::ShapeError::OutOfRange(super::geo::OutOfRange::idl_decode(&mut __reply)?)),
                    "geo::busy" => Err(super::shapes::ShapeError::Busy(super::geo::Busy::idl_decode(&mut __reply)?)),
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::near` on the remote object.
        pub fn near(&self, p: &super::geo::Point) -> ::std::result::Result<Vec<i32>, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::NEAR)?;
            __call.align8();
            ((*p)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = { let __n = (&mut __reply).get_seq_len(4)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push((&mut __reply).get_i32()?); } __v };
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::count_named` on the remote object.
        pub fn count_named(&self, prefix: &str) -> ::std::result::Result<i32, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::COUNT_NAMED)?;
            (&mut __call).put_string(&(*prefix));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 4)?;
                    let __r0 = ::spring_buf::flat::get_i32(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::tag` on the remote object.
        pub fn tag(&self, b: &super::geo::store::Batch) -> ::std::result::Result<(), super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::TAG)?;
            ((*b)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "geo::busy" => Err(super::shapes::ShapeError::Busy(super::geo::Busy::idl_decode(&mut __reply)?)),
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::rename` on the remote object.
        pub fn rename(&self, name: &str) -> ::std::result::Result<String, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::RENAME)?;
            (&mut __call).put_string(&(*name));
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = (&mut __reply).get_string()?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::shape::echo_prims` on the remote object.
        pub fn echo_prims(&self, p: &super::geo::Prims) -> ::std::result::Result<super::geo::Prims, super::shapes::ShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::ECHO_PRIMS)?;
            __call.align8();
            ((*p)).idl_encode(&mut __call);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 48)?;
                    super::geo::Prims::validate(&__flat[0..48])?;
                    let __r0 = super::geo::PrimsView::assume_valid(&__flat[0..48]).to_owned();
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::ShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::cached_shape::attach` on the remote object.
        pub fn attach(&self, s: super::shapes::Shape, keep: &super::shapes::Shape, any: ::subcontract::SpringObj, keep_any: &::subcontract::SpringObj) -> ::std::result::Result<(), super::shapes::CachedShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::ATTACH)?;
            s.into_obj().marshal(&mut __call)?;
            keep.obj().marshal_copy(&mut __call)?;
            any.marshal(&mut __call)?;
            keep_any.marshal_copy(&mut __call)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    Ok(())
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::CachedShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::cached_shape::anything` on the remote object.
        pub fn anything(&self) -> ::std::result::Result<::subcontract::SpringObj, super::shapes::CachedShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::ANYTHING)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = ::subcontract::unmarshal_object(self.obj.ctx(), &::subcontract::OBJECT_TYPE, &mut __reply)?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::CachedShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::cached_shape::twin` on the remote object.
        pub fn twin(&self) -> ::std::result::Result<super::shapes::Shape, super::shapes::CachedShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::TWIN)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = ::subcontract::unmarshal_object(self.obj.ctx(), &super::shapes::SHAPE_TYPE, &mut __reply)?;
                    let __r0 = super::shapes::Shape::from_obj(__r0)?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    "geo::busy" => Err(super::shapes::CachedShapeError::Busy(super::geo::Busy::idl_decode(&mut __reply)?)),
                    __other => Err(super::shapes::CachedShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::cached_shape::again` on the remote object.
        pub fn again(&self) -> ::std::result::Result<super::shapes::CachedShape, super::shapes::CachedShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::AGAIN)?;
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __r0 = ::subcontract::unmarshal_object(self.obj.ctx(), &super::shapes::CACHED_SHAPE_TYPE, &mut __reply)?;
                    let __r0 = super::shapes::CachedShape::from_obj(__r0)?;
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::CachedShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }

        /// Invokes `shapes::cached_shape::tune` on the remote object.
        pub fn tune(&self, lvl: super::Level, k: u8, w: u16, f: f32) -> ::std::result::Result<bool, super::shapes::CachedShapeError> {
            let mut __call = self.obj.start_call(super::shapes::cached_shape_ops::TUNE)?;
            __call.align8();
            (lvl).idl_encode(&mut __call);
            (&mut __call).put_u8(k);
            (&mut __call).put_u16(w);
            (&mut __call).put_f32(f);
            let mut __reply = self.obj.invoke(__call)?;
            match ::subcontract::decode_reply_status(&mut __reply)? {
                ::subcontract::ReplyStatus::Ok => {
                    let __flat = __reply.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 1)?;
                    ::spring_buf::flat::check_bool(__flat, 0)?;
                    let __r0 = ::spring_buf::flat::get_bool(__flat, 0);
                    Ok(__r0)
                }
                ::subcontract::ReplyStatus::UserException(__name) => match __name.as_str() {
                    __other => Err(super::shapes::CachedShapeError::System(::subcontract::SpringError::UnknownUserException(__other.to_owned()))),
                },
            }
        }
    }

    /// Server application interface for `shapes::cached_shape`.
    pub trait CachedShapeServant: super::shapes::ShapeServant {
        /// Serves `shapes::cached_shape::attach`.
        fn attach(&self, s: super::shapes::Shape, keep: super::shapes::Shape, any: ::subcontract::SpringObj, keep_any: ::subcontract::SpringObj) -> ::std::result::Result<(), super::shapes::CachedShapeError>;
        /// Serves `shapes::cached_shape::anything`.
        fn anything(&self) -> ::std::result::Result<::subcontract::SpringObj, super::shapes::CachedShapeError>;
        /// Serves `shapes::cached_shape::twin`.
        fn twin(&self) -> ::std::result::Result<super::shapes::Shape, super::shapes::CachedShapeError>;
        /// Serves `shapes::cached_shape::again`.
        fn again(&self) -> ::std::result::Result<super::shapes::CachedShape, super::shapes::CachedShapeError>;
        /// Serves `shapes::cached_shape::tune`.
        fn tune(&self, lvl: super::Level, k: u8, w: u16, f: f32) -> ::std::result::Result<bool, super::shapes::CachedShapeError>;
        /// The last door identifier for this object died (§7).
        fn unreferenced(&self) {}
    }

    /// Server-side stub (skeleton) for `shapes::cached_shape`: unmarshals arguments and calls into the server application (§4).
    pub struct CachedShapeSkeleton<S: CachedShapeServant> {
        servant: ::std::sync::Arc<S>,
    }

    impl<S: CachedShapeServant> CachedShapeSkeleton<S> {
        /// Wraps a servant for export through any server subcontract.
        pub fn new(servant: ::std::sync::Arc<S>) -> ::std::sync::Arc<Self> {
            ::std::sync::Arc::new(CachedShapeSkeleton { servant })
        }
    }

    impl<S: CachedShapeServant> ::subcontract::Dispatch for CachedShapeSkeleton<S> {
        fn type_info(&self) -> &'static ::subcontract::TypeInfo {
            &CACHED_SHAPE_TYPE
        }

        fn dispatch(&self, __sctx: &::subcontract::ServerCtx, __op: u32, __args: &mut ::spring_buf::CommBuffer, __reply: &mut ::spring_buf::CommBuffer) -> ::subcontract::Result<()> {
            match __op {
                __x if __x == super::shapes::cached_shape_ops::GET_AREA => {
                    match self.servant.get_area() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_f64(__r0);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::GET_CENTER => {
                    match self.servant.get_center() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::SET_CENTER => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 18)?;
                    super::geo::Point::validate(&__flat[0..18])?;
                    let __a_value = super::geo::PointView::assume_valid(&__flat[0..18]).to_owned();
                    match self.servant.set_center(__a_value) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::GET_LABEL => {
                    match self.servant.get_label() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_string(&__r0);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::SET_LABEL => {
                    let __a_value = __args.get_string()?;
                    match self.servant.set_label(__a_value) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::TRANSLATE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 16)?;
                    let __a_dx = ::spring_buf::flat::get_f64(__flat, 0);
                    let __a_dy = ::spring_buf::flat::get_f64(__flat, 8);
                    match self.servant.translate(__a_dx, __a_dy) {
                        Ok((__r0, __r1, __r2, __r3)) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i32(__r0);
                            __reply.put_f64(__r1);
                            __reply.put_bool(__r2);
                            (__r3).idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::OutOfRange(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "geo::out_of_range");
                            __e.idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::BOUNDS => {
                    match self.servant.bounds() {
                        Ok((__r0, __r1)) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i32(__r0);
                            __reply.put_i32(__r1);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::LOCATE => {
                    let __a_which = { let __n = __args.get_seq_len(4)?; let mut __v = Vec::with_capacity(__n); for _ in 0..__n { __v.push(__args.get_i32()?); } __v };
                    let __a_match_ = __args.get_i32()?;
                    match self.servant.locate(__a_which, __a_match_) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::OutOfRange(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "geo::out_of_range");
                            __e.idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::Busy(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "geo::busy");
                            __e.idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::NEAR => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 18)?;
                    super::geo::Point::validate(&__flat[0..18])?;
                    let __a_p = super::geo::PointView::assume_valid(&__flat[0..18]).to_owned();
                    match self.servant.near(__a_p) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_seq_len(__r0.len());
                            for __it in &__r0 {
                                __reply.put_i32((*__it));
                            }
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::COUNT_NAMED => {
                    let __a_prefix = __args.get_string()?;
                    match self.servant.count_named(__a_prefix) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_i32(__r0);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::TAG => {
                    let __a_b = super::geo::store::Batch::idl_decode(__args)?;
                    match self.servant.tag(__a_b) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::shapes::ShapeError::Busy(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "geo::busy");
                            __e.idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::RENAME => {
                    let __a_name = __args.get_string()?;
                    match self.servant.rename(__a_name) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.put_string(&__r0);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::ECHO_PRIMS => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 48)?;
                    super::geo::Prims::validate(&__flat[0..48])?;
                    let __a_p = super::geo::PrimsView::assume_valid(&__flat[0..48]).to_owned();
                    match self.servant.echo_prims(__a_p) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            (__r0).idl_encode(__reply);
                        }
                        Err(super::shapes::ShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::ATTACH => {
                    let __a_s = ::subcontract::unmarshal_object(&__sctx.ctx, &super::shapes::SHAPE_TYPE, __args)?;
                    let __a_s = super::shapes::Shape::from_obj(__a_s)?;
                    let __a_keep = ::subcontract::unmarshal_object(&__sctx.ctx, &super::shapes::SHAPE_TYPE, __args)?;
                    let __a_keep = super::shapes::Shape::from_obj(__a_keep)?;
                    let __a_any = ::subcontract::unmarshal_object(&__sctx.ctx, &::subcontract::OBJECT_TYPE, __args)?;
                    let __a_keep_any = ::subcontract::unmarshal_object(&__sctx.ctx, &::subcontract::OBJECT_TYPE, __args)?;
                    match self.servant.attach(__a_s, __a_keep, __a_any, __a_keep_any) {
                        Ok(()) => {
                            ::subcontract::encode_ok(__reply);
                        }
                        Err(super::shapes::CachedShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::ANYTHING => {
                    match self.servant.anything() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __r0.marshal(__reply)?;
                        }
                        Err(super::shapes::CachedShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::TWIN => {
                    match self.servant.twin() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __r0.into_obj().marshal(__reply)?;
                        }
                        Err(super::shapes::CachedShapeError::Busy(__e)) => {
                            ::subcontract::encode_user_exception(__reply, "geo::busy");
                            __e.idl_encode(__reply);
                        }
                        Err(super::shapes::CachedShapeError::System(__e)) => return Err(__e),
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::AGAIN => {
                    match self.servant.again() {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __r0.into_obj().marshal(__reply)?;
                        }
                        Err(super::shapes::CachedShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __x if __x == super::shapes::cached_shape_ops::TUNE => {
                    let __flat = __args.flat_remaining()?;
                    ::spring_buf::flat::check_len(__flat, 12)?;
                    ::spring_buf::flat::check_tag(__flat, 0, 2)?;
                    let __a_lvl = super::Level::from_tag(::spring_buf::flat::get_u32(__flat, 0));
                    let __a_k = ::spring_buf::flat::get_u8(__flat, 4);
                    let __a_w = ::spring_buf::flat::get_u16(__flat, 6);
                    let __a_f = ::spring_buf::flat::get_f32(__flat, 8);
                    match self.servant.tune(__a_lvl, __a_k, __a_w, __a_f) {
                        Ok(__r0) => {
                            ::subcontract::encode_ok(__reply);
                            __reply.align8();
                            __reply.put_bool(__r0);
                        }
                        Err(super::shapes::CachedShapeError::System(__e)) => return Err(__e),
                        Err(__e) => {
                            ::subcontract::encode_system_error(__reply, &::std::string::ToString::to_string(&__e));
                        }
                    }
                    Ok(())
                }
                __other => Err(::subcontract::SpringError::UnknownOp(__other)),
            }
        }

        fn unreferenced(&self) {
            <S as CachedShapeServant>::unreferenced(&self.servant)
        }
    }
}
