"""Command-line surface: CSV in, JSON/CSV envelope out, SVG charts."""
