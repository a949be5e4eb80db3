// dbplint fixture: consistency/config-key-doc fires on every config
// key README does not document (it documents only `banks`), whether a
// Config getter reads it or a visit() key() entry names it. fixed()
// entries have no key and never fire.
struct FixtureParams
{
    unsigned banks = 8;
    unsigned lineBytes = 64;
    unsigned knob = 0;

    template <class V>
    void
    visit(V &v)
    {
        v.key("banks", banks);
        v.fixed("line_bytes", lineBytes);
        v.key("undocumented_knob", knob); // EXPECT:config-key-doc
    }

    void
    read(const Config &c)
    {
        knob = c.getUInt("undocumented_getter", knob); // EXPECT:config-key-doc
    }
};
